package dram

// Checkpoint snapshot/restore. Tombstoned queue entries are dropped:
// the FR-FCFS scheduler and NextEvent skip dead entries and count only
// live ones against the scan window, so a queue rebuilt from the live
// entries in order behaves identically to the original (compaction
// thresholds differ, but compaction is invisible to scheduling). The
// completion heap is serialized in raw heap layout so equal-time
// completions keep their pop order (see eventq.Elems).

import "fmt"

// CompletionState mirrors one pending completion event.
type CompletionState struct {
	At3   uint64
	Token uint64
}

// State is a complete, detached snapshot of a DRAM channel.
type State struct {
	// Queue holds the live (unissued) requests in queue order.
	Queue       []Request
	BankBusy3   []uint64
	BankRow     []uint64
	BusFree3    uint64
	Completions []CompletionState // raw heap layout
	Stats       Stats
}

// Snapshot captures the channel's full behavioral state. The result
// shares no memory with the channel.
func (d *DRAM) Snapshot() *State {
	st := &State{
		BankBusy3: append([]uint64(nil), d.bankBusy3...),
		BankRow:   append([]uint64(nil), d.bankRow...),
		BusFree3:  d.busFree3,
		Stats:     d.Stats,
	}
	st.Stats.RequestsByKind = append([]uint64(nil), d.Stats.RequestsByKind...)
	st.Stats.BytesByKind = append([]uint64(nil), d.Stats.BytesByKind...)
	if d.live > 0 {
		st.Queue = make([]Request, 0, d.live)
		for _, p := range d.queue[d.head:] {
			if !p.dead {
				st.Queue = append(st.Queue, p.req)
			}
		}
	}
	for _, c := range d.compl.Elems() {
		st.Completions = append(st.Completions, CompletionState{At3: c.at3, Token: c.token})
	}
	return st
}

// Restore replaces the channel's state with a snapshot taken from a
// channel of identical configuration (bank count is validated).
func (d *DRAM) Restore(st *State) error {
	if len(st.BankBusy3) != d.cfg.Banks || len(st.BankRow) != d.cfg.Banks {
		return fmt.Errorf("dram: snapshot has %d/%d banks, channel has %d",
			len(st.BankBusy3), len(st.BankRow), d.cfg.Banks)
	}
	d.queue = d.queue[:0]
	for _, r := range st.Queue {
		d.queue = append(d.queue, d.pendingFor(r))
	}
	d.head = 0
	d.live = len(st.Queue)
	copy(d.bankBusy3, st.BankBusy3)
	copy(d.bankRow, st.BankRow)
	d.busFree3 = st.BusFree3
	compl := make([]completion, 0, len(st.Completions))
	for _, c := range st.Completions {
		compl = append(compl, completion{at3: c.At3, token: c.Token})
	}
	d.compl.SetElems(compl)
	d.done = nil
	d.Stats = st.Stats
	d.Stats.RequestsByKind = append([]uint64(nil), st.Stats.RequestsByKind...)
	d.Stats.BytesByKind = append([]uint64(nil), st.Stats.BytesByKind...)
	return nil
}
