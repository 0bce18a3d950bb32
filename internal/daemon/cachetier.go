package daemon

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"

	"gpusecmem"
)

// memCache is the daemon's in-process result store: a bounded LRU
// over canonical RunKeys, shared by every request. It only ever holds
// pointers to immutable completed Results, so concurrent readers need
// no copies. cap<=0 disables it (every Get misses, Put is a no-op) —
// useful when a disk cache is the only tier wanted.
type memCache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recent
	entries map[string]*list.Element

	// evictions counts capacity evictions (not overwrites); surfaced
	// as gpusecmem_cache_evictions_total so a thrashing LRU is visible
	// instead of silently re-simulating.
	evictions atomic.Uint64
}

type memEntry struct {
	key string
	res *gpusecmem.Result
}

func newMemCache(cap int) *memCache {
	return &memCache{cap: cap, order: list.New(), entries: make(map[string]*list.Element)}
}

func (m *memCache) get(key string) (*gpusecmem.Result, bool) {
	if m.cap <= 0 {
		return nil, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.entries[key]
	if !ok {
		return nil, false
	}
	m.order.MoveToFront(el)
	return el.Value.(*memEntry).res, true
}

func (m *memCache) put(key string, res *gpusecmem.Result) {
	if m.cap <= 0 || res == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.entries[key]; ok {
		el.Value.(*memEntry).res = res
		m.order.MoveToFront(el)
		return
	}
	m.entries[key] = m.order.PushFront(&memEntry{key: key, res: res})
	for m.order.Len() > m.cap {
		oldest := m.order.Back()
		m.order.Remove(oldest)
		delete(m.entries, oldest.Value.(*memEntry).key)
		m.evictions.Add(1)
	}
}

func (m *memCache) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.order.Len()
}

// cacheView is a per-request gpusecmem.ResultCache over the shared
// tiers, consulted in cost order: memory, then the persistent store
// (promoting disk hits into memory). Each request gets its own view so
// hit attribution — the "source" field the smoke tests assert on — is
// exact even under concurrent requests. In cluster mode a key missing
// from both is forwarded whole to its owner by handleRun (DESIGN.md
// §16); the view itself never talks to peers.
type cacheView struct {
	mem  *memCache
	disk gpusecmem.ResultCache // nil when the daemon has no -cache-dir

	memHits, memMisses, diskHits, diskMisses, puts atomic.Uint64
}

func (s *Server) newView() *cacheView {
	return &cacheView{mem: s.mem, disk: s.cfg.Cache}
}

func (v *cacheView) Get(key string) (*gpusecmem.Result, bool) {
	if res, ok := v.mem.get(key); ok {
		v.memHits.Add(1)
		return res, true
	}
	v.memMisses.Add(1)
	if v.disk != nil {
		if res, ok := v.disk.Get(key); ok {
			v.diskHits.Add(1)
			v.mem.put(key, res)
			return res, true
		}
		v.diskMisses.Add(1)
	}
	return nil, false
}

func (v *cacheView) Put(key string, res *gpusecmem.Result) {
	v.puts.Add(1)
	v.mem.put(key, res)
	if v.disk != nil {
		v.disk.Put(key, res)
	}
}

// source summarizes where this request's results came from, worst
// tier wins: any fresh simulation makes the whole request
// "simulated", else any disk read makes it "disk", else "memory".
func (v *cacheView) source() string {
	switch {
	case v.puts.Load() > 0:
		return "simulated"
	case v.diskHits.Load() > 0:
		return "disk"
	default:
		return "memory"
	}
}

// count folds the view's tallies into the registry's cache-tier
// counters. Local atomics exist only for per-request source
// attribution; the registry is the durable surface. Call exactly once
// per view.
func (v *cacheView) count() {
	met.memHits.Add(v.memHits.Load())
	met.memMisses.Add(v.memMisses.Load())
	met.diskHits.Add(v.diskHits.Load())
	met.diskMisses.Add(v.diskMisses.Load())
	met.simulated.Add(v.puts.Load())
}

// ckptView is a per-request gpusecmem.CheckpointStore over the shared
// store. Like cacheView it exists for exact attribution: a Latest hit
// means this request's simulation started from a mid-run snapshot
// instead of cycle 0, which the response reports as source "resumed".
type ckptView struct {
	store gpusecmem.CheckpointStore

	resumes, saves atomic.Uint64
}

// newContext builds a request's memo over a fresh cache view and, when
// a checkpoint store is configured, routes its simulations through a
// fresh checkpoint view (nil — and safe to use — when checkpointing is
// off). Shutdown checkpointing needs no extra plumbing: cancelling a
// checkpointed run snapshots it before the simulator returns.
func (s *Server) newContext(opts gpusecmem.Options) (*gpusecmem.Context, *cacheView, *ckptView) {
	gctx := gpusecmem.NewContext(opts)
	view := s.newView()
	gctx.SetResultCache(view)
	var ck *ckptView
	if s.cfg.Checkpoints != nil {
		ck = &ckptView{store: s.cfg.Checkpoints}
		gctx.SetCheckpointStore(ck, s.cfg.CheckpointEvery)
	}
	return gctx, view, ck
}

func (v *ckptView) Latest(key string, maxCycle uint64) (uint64, []byte, bool) {
	t0 := time.Now()
	cycle, state, ok := v.store.Latest(key, maxCycle)
	met.ckptRestoreUs.ObserveSince(t0)
	if ok {
		v.resumes.Add(1)
	}
	return cycle, state, ok
}

func (v *ckptView) Put(key string, cycle uint64, state []byte) error {
	v.saves.Add(1)
	t0 := time.Now()
	err := v.store.Put(key, cycle, state)
	met.ckptSaveUs.ObserveSince(t0)
	return err
}

// sourceOr returns "resumed" when this request's simulation restarted
// from a checkpoint — outranking the cache tiers, which only see
// whole-run results — and the cache-tier source otherwise.
func (v *ckptView) sourceOr(cacheSource string) string {
	if v != nil && v.resumes.Load() > 0 {
		return "resumed"
	}
	return cacheSource
}

// count folds the view's tallies into the registry's checkpoint
// counters.
func (v *ckptView) count() {
	if v == nil {
		return
	}
	met.resumed.Add(v.resumes.Load())
	met.saved.Add(v.saves.Load())
}
