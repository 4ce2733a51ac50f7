package des

import (
	"context"
	"fmt"
	"time"

	"repro/internal/circuit"
)

// Runner is a reusable simulation arena bound to one (DAG, Config) pair:
// every per-instruction and per-qubit table RunDAG used to allocate — the
// dependency counters, the staging queues, the waiter lists, the residency
// LRU and the event lanes — lives in the Runner and is rewound between runs.
// The first Run grows the waiter backing arrays to the circuit's high-water
// mark; after that a run performs no allocations at all.
//
// A Runner is not safe for concurrent use. The arch engine keeps none: it
// simulates each (DAG, Config) pair once, through RunDAG, and memoizes the
// Stats.
type Runner struct {
	d      *circuit.DAG
	c      *circuit.Circuit
	cfg    Config
	winCap int

	remaining  []int32 // unmet dependencies
	missing    []int32 // operands not yet resident (window members)
	pending    *intQueue
	fetchQueue *intQueue
	readyRun   *intQueue
	waiters    [][]int32 // qubit -> staged instructions awaiting it
	res        *residency
	events     *eventQueue
	// lane is each instruction's completion-event lane and laneTime that
	// lane's duration, so starting an instruction reads one byte instead
	// of the instruction. Lane fetchLane holds operand fetches.
	lane     []uint8
	laneTime []time.Duration

	// Per-run mutable state, rewound by reset.
	seq            int
	now            time.Duration
	freeBlocks     int
	freeChannels   int
	window         int
	stats          Stats
	done           int
	lastStallCheck time.Duration
	stalledInstrs  int
}

// NewRunner validates the configuration and allocates every table one run
// of d's circuit needs. The staging window and event-arena sizing match
// RunDAG exactly; so does every statistic a Run produces.
func NewRunner(d *circuit.DAG, cfg Config) (*Runner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := d.Circuit()
	n, nq := c.Len(), c.NumQubits()
	// Staging window: only a bounded number of dependency-ready
	// instructions hold operand pins at once, which keeps pin pressure
	// below the residency capacity and guarantees forward progress.
	winCap := cfg.ResidentQubits/3 - cfg.Blocks
	if winCap < 1 {
		winCap = 1
	}
	// One event lane per distinct event duration: fetches, then each slot
	// count the circuit uses, in order of first use. Outstanding events are
	// bounded by busy resources, so a lane holds at most one fetch per
	// channel or one completion per block.
	capacities := []int{cfg.Channels}
	laneTime := []time.Duration{cfg.TransportTime}
	lane := make([]uint8, n)
	for i, in := range c.Instrs() {
		dur := time.Duration(in.Slots()) * cfg.SlotTime
		k := fetchLane + 1
		for k < len(laneTime) && laneTime[k] != dur {
			k++
		}
		if k == len(laneTime) {
			capacities = append(capacities, cfg.Blocks)
			laneTime = append(laneTime, dur)
		}
		lane[i] = uint8(k)
	}
	return &Runner{
		d:          d,
		c:          c,
		cfg:        cfg,
		winCap:     winCap,
		remaining:  make([]int32, n),
		missing:    make([]int32, n),
		pending:    newIntQueue(n),
		fetchQueue: newIntQueue(nq),
		readyRun:   newIntQueue(n),
		waiters:    make([][]int32, nq),
		res:        newResidency(cfg.ResidentQubits, nq),
		events:     newEventQueue(capacities),
		lane:       lane,
		laneTime:   laneTime,
	}, nil
}

// reset rewinds the arena to the start-of-run state: queues emptied onto
// their retained backing arrays, residency and counters zeroed, dependency
// counts recomputed, source instructions staged as pending.
//
//cqla:noalloc
func (r *Runner) reset() {
	r.pending.reset()
	r.fetchQueue.reset()
	r.readyRun.reset()
	for q := range r.waiters {
		r.waiters[q] = r.waiters[q][:0] // keep the backing array across runs
	}
	r.res.reset()
	r.events.reset()
	r.seq = 0
	r.now = 0
	r.freeBlocks = r.cfg.Blocks
	r.freeChannels = r.cfg.Channels
	r.window = 0
	r.stats = Stats{}
	r.done = 0
	r.lastStallCheck = 0
	r.stalledInstrs = 0
	for i := 0; i < r.c.Len(); i++ {
		r.remaining[i] = int32(len(r.d.Deps(i)))
		if r.remaining[i] == 0 {
			r.pending.push(int32(i))
		}
	}
}

// fetchLane is the event lane of operand fetches.
const fetchLane = 0

//cqla:noalloc
func (r *Runner) pushEvent(lane int, at time.Duration, kind eventKind, id int) {
	r.seq++
	r.events.push(lane, event{at: at, kind: kind, id: id, seq: r.seq})
}

// stage admits pending instructions into the window, pinning their
// operands and enqueueing fetches for the missing ones.
//
//cqla:noalloc
func (r *Runner) stage() {
	for r.window < r.winCap && r.pending.len() > 0 {
		i := r.pending.pop()
		r.window++
		var miss int32
		for _, op := range r.c.Instr(int(i)).Operands() {
			q := int(op)
			r.res.pin(q)
			if r.res.contains(q) {
				r.res.touch(q)
				continue
			}
			miss++
			if len(r.waiters[q]) == 0 {
				r.fetchQueue.push(op)
			}
			//lint:ignore-cqla noalloc waiter lists reach their high-water mark on the first run and reuse the backing array after
			r.waiters[q] = append(r.waiters[q], i)
		}
		r.missing[i] = miss
		if miss == 0 {
			r.readyRun.push(i)
		}
	}
}

//cqla:noalloc
func (r *Runner) startFetches() {
	for r.freeChannels > 0 && r.fetchQueue.len() > 0 {
		q := int(r.fetchQueue.peek())
		if !r.res.admit(q) {
			break // all residents pinned; retried after pins release
		}
		r.fetchQueue.pop()
		r.freeChannels--
		r.stats.Transports++
		r.stats.TransportBusy += r.cfg.TransportTime
		r.pushEvent(fetchLane, r.now+r.cfg.TransportTime, evFetchDone, q)
	}
}

//cqla:noalloc
func (r *Runner) startInstrs() {
	for r.freeBlocks > 0 && r.readyRun.len() > 0 {
		i := r.readyRun.pop()
		r.window-- // leaves the staging window; pins persist until done
		r.freeBlocks--
		k := int(r.lane[i])
		dur := r.laneTime[k]
		r.stats.ComputeBusy += dur
		r.pushEvent(k, r.now+dur, evInstrDone, int(i))
	}
}

//cqla:noalloc
func (r *Runner) accountStall(t time.Duration) {
	if stalled := r.stalledInstrs; stalled > 0 && r.freeBlocks > 0 {
		win := t - r.lastStallCheck
		m := stalled
		if m > r.freeBlocks {
			m = r.freeBlocks
		}
		r.stats.StallTime += time.Duration(m) * win
	}
	r.lastStallCheck = t
}

// pump iterates staging, fetch starts and instruction starts to a fixed
// point: staging can unblock fetches, fetch admission can unblock staging.
//
//cqla:noalloc
func (r *Runner) pump() {
	for {
		before := r.fetchQueue.len() + r.readyRun.len() + r.pending.len() + r.freeBlocks + r.freeChannels
		r.stage()
		r.startFetches()
		r.startInstrs()
		after := r.fetchQueue.len() + r.readyRun.len() + r.pending.len() + r.freeBlocks + r.freeChannels
		if before == after {
			return
		}
	}
}

// Run simulates the circuit on the configured machine and returns the
// measured statistics. It may be called any number of times; every run
// starts from the same all-qubits-in-memory state and produces the same
// statistics RunDAG does.
//
//cqla:noalloc
func (r *Runner) Run(ctx context.Context) (Stats, error) {
	r.reset()
	n := r.c.Len()
	r.pump()
	r.stalledInstrs = r.pending.len() + r.window
	loops := 0
	for r.events.len() > 0 {
		if loops++; loops&1023 == 1 {
			if err := ctx.Err(); err != nil {
				return Stats{}, err
			}
		}
		ev := r.events.pop()
		r.accountStall(ev.at)
		r.now = ev.at
		switch ev.kind {
		case evFetchDone:
			r.freeChannels++
			q := ev.id
			for _, i := range r.waiters[q] {
				r.missing[i]--
				if r.missing[i] == 0 {
					r.readyRun.push(i)
				}
			}
			r.waiters[q] = r.waiters[q][:0] // keep the backing array for refetches
		case evInstrDone:
			r.freeBlocks++
			r.done++
			i := ev.id
			for _, q := range r.c.Instr(i).Operands() {
				r.res.unpin(int(q))
			}
			for _, s := range r.d.Succs(i) {
				r.remaining[s]--
				if r.remaining[s] == 0 {
					r.pending.push(s)
				}
			}
		}
		r.pump()
		r.stalledInstrs = r.pending.len() + r.window
		if r.events.len() == 0 && r.done < n {
			//lint:ignore-cqla noalloc deadlock reporting is a terminal failure path
			return Stats{}, fmt.Errorf("des: deadlock after %d/%d instructions", r.done, n)
		}
	}
	r.stats.Makespan = r.now
	r.stats.BlockUtilization = utilization(r.stats.ComputeBusy, r.cfg.Blocks, r.stats.Makespan)
	r.stats.ChannelUtilization = utilization(r.stats.TransportBusy, r.cfg.Channels, r.stats.Makespan)
	if r.done != n {
		//lint:ignore-cqla noalloc incomplete-run reporting is a terminal failure path
		return Stats{}, fmt.Errorf("des: finished %d of %d instructions", r.done, n)
	}
	return r.stats, nil
}

func (q *intQueue) reset() {
	q.buf = q.buf[:0]
	q.head = 0
}

// reset returns the residency set to empty with no pins. The intrusive
// prev/next links need no clearing: they are only read for resident qubits.
func (r *residency) reset() {
	r.size = 0
	r.head, r.tail = -1, -1
	for i := range r.resident {
		r.resident[i] = false
		r.pins[i] = 0
	}
}
