package daemon

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"

	"gpusecmem"
)

// memCache is the daemon's in-process result store: a bounded LRU
// over canonical RunKeys, shared by every request. Each entry is an
// answer: an immutable completed Result and its /api/run rendering,
// made once when the entry is stored, so a memory hit re-renders
// nothing and concurrent readers need no copies. cap<=0 disables it
// (every get misses, put only renders) — useful when a disk cache is
// the only tier wanted.
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
	ans *answer
}

func newMemCache(cap int) *memCache {
	return &memCache{cap: cap, order: list.New(), entries: make(map[string]*list.Element)}
}

func (m *memCache) get(key string) (*answer, bool) {
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
	return el.Value.(*memEntry).ans, true
}

// put renders res's answer, outside the lock, keeps it under key and
// returns it.
func (m *memCache) put(key string, res *gpusecmem.Result) *answer {
	ans := render(key, res)
	if m.cap <= 0 {
		return ans
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.entries[key]; ok {
		el.Value.(*memEntry).ans = ans
		m.order.MoveToFront(el)
		return ans
	}
	m.entries[key] = m.order.PushFront(&memEntry{key: key, ans: ans})
	for m.order.Len() > m.cap {
		oldest := m.order.Back()
		m.order.Remove(oldest)
		delete(m.entries, oldest.Value.(*memEntry).key)
		m.evictions.Add(1)
	}
	return ans
}

func (m *memCache) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.order.Len()
}

// cacheView is a per-request gpusecmem.ResultCache over the shared
// tiers, consulted in cost order: memory, then the persistent store
// (rendering a disk hit's answer once and promoting it into memory).
// Each request gets its own view so hit attribution — the "source"
// field the smoke tests assert on — is exact even under concurrent
// requests. In cluster mode a key missing from both is forwarded whole
// to its owner by handleRun (DESIGN.md §16); the view itself never
// talks to peers.
type cacheView struct {
	mem  *memCache
	disk gpusecmem.ResultCache // nil when the daemon has no -cache-dir

	// last is the answer of the view's latest hit or Put, so the
	// request that simulated a result answers with the rendering its
	// Put already made.
	last atomic.Pointer[answer]

	memHits, memMisses, diskHits, diskMisses, puts atomic.Uint64
}

func (s *Server) newView() *cacheView {
	return &cacheView{mem: s.mem, disk: s.cfg.Cache}
}

// lookup serves key's answer from memory, else from disk.
func (v *cacheView) lookup(key string) (*answer, bool) {
	ans, ok := v.mem.get(key)
	if ok {
		v.memHits.Add(1)
	} else {
		v.memMisses.Add(1)
		if v.disk == nil {
			return nil, false
		}
		res, ok := v.disk.Get(key)
		if !ok {
			v.diskMisses.Add(1)
			return nil, false
		}
		v.diskHits.Add(1)
		ans = v.mem.put(key, res)
	}
	v.last.Store(ans)
	return ans, true
}

func (v *cacheView) Get(key string) (*gpusecmem.Result, bool) {
	if ans, ok := v.lookup(key); ok {
		return ans.res, true
	}
	return nil, false
}

// answer returns the answer of res, the result of the run keyed key:
// the one this view last served or stored when it is res's, else a
// fresh rendering.
func (v *cacheView) answer(key string, res *gpusecmem.Result) *answer {
	if ans := v.last.Load(); ans != nil && ans.res == res {
		return ans
	}
	return render(key, res)
}

func (v *cacheView) Put(key string, res *gpusecmem.Result) {
	v.puts.Add(1)
	v.last.Store(v.mem.put(key, res))
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

// ckptView is a gpusecmem.CheckpointStore over the shared store that
// times every store call and counts the saves. It counts no resumes:
// only Restore can judge the bytes a Latest hit returns, so whether a
// run resumed is SimulateCheckpointed's report, counted by the
// request's Context.
type ckptView struct {
	store gpusecmem.CheckpointStore
}

// newContext builds a request's memo over a fresh cache view, which it
// also returns, and, when a checkpoint store is configured, routes its
// simulations through a checkpoint view. Shutdown checkpointing needs
// no extra plumbing: cancelling a checkpointed run snapshots it before
// the simulator returns. Call settle exactly once, after the request's runs: it
// folds the request's tallies into the registry and returns where its
// results came from — "resumed" when a simulation restarted from a
// checkpoint, outranking the cache tiers, which only see whole-run
// results, and the cache tier's source otherwise.
func (s *Server) newContext(opts gpusecmem.Options) (gctx *gpusecmem.Context, view *cacheView, settle func() string) {
	gctx = gpusecmem.NewContext(opts)
	view = s.newView()
	gctx.SetResultCache(view)
	if s.cfg.Checkpoints != nil {
		gctx.SetCheckpointStore(ckptView{store: s.cfg.Checkpoints}, s.cfg.CheckpointEvery)
	}
	return gctx, view, func() string {
		view.count()
		resumed := gctx.CacheStats().Resumed
		met.resumed.Add(resumed)
		if resumed > 0 {
			return "resumed"
		}
		return view.source()
	}
}

func (v ckptView) Latest(key string, maxCycle uint64) (uint64, []byte, bool) {
	t0 := time.Now()
	cycle, state, ok := v.store.Latest(key, maxCycle)
	met.ckptRestoreUs.ObserveSince(t0)
	return cycle, state, ok
}

// Put counts a save only once the store has written it.
func (v ckptView) Put(key string, cycle uint64, state []byte) error {
	t0 := time.Now()
	err := v.store.Put(key, cycle, state)
	met.ckptSaveUs.ObserveSince(t0)
	if err == nil {
		met.saved.Inc()
	}
	return err
}
