// Package waitgraph builds wPerf-style thread wait-for graphs from
// scheduler events ("Identifying bottlenecks in multithreaded
// applications", PAPERS.md). Rooflines explain where *on-CPU* time
// goes; this package explains the rest: for each thread it partitions
// wall time into running, lock wait, I/O wait, and runnable wait, and
// it identifies which locks, devices, and thread groups the waiting is
// *for*. A knot — a strongly connected component of the thread
// wait-for graph with no edges leaving it — is the classic waiting
// bottleneck: every member waits only on other members, so no outside
// progress can help.
package waitgraph

import (
	"fmt"
	"sort"
	"strings"

	"spire/internal/core"
	"spire/internal/graphalg"
	"spire/internal/pmu"
)

// ThreadTimes is the exact per-thread wall-time partition. Wall ==
// Running + LockWait + IOWait + RunnableWait by construction (the same
// additions build both sides).
type ThreadTimes struct {
	Thread       int     `json:"thread"`
	Running      float64 `json:"running"`
	LockWait     float64 `json:"lockWait"`
	IOWait       float64 `json:"ioWait"`
	RunnableWait float64 `json:"runnableWait"`
	Wall         float64 `json:"wall"`
}

// Edge is one aggregated wait-for relation: From waited on To for Wait
// cycles in total. To is a thread node ("thread:3") for lock waits with
// a known holder, a device node ("io:disk"), or the run queue ("cpu").
type Edge struct {
	From  string  `json:"from"`
	To    string  `json:"to"`
	Kind  string  `json:"kind"` // "lock", "io", or "runnable"
	Obj   string  `json:"obj,omitempty"`
	Wait  float64 `json:"wait"`
	Count int     `json:"count"`
}

// Graph is the built wait-for graph.
type Graph struct {
	// Threads holds the per-thread partition, ascending by thread id.
	Threads []ThreadTimes `json:"threads"`
	// Edges holds the aggregated wait-for edges in deterministic order
	// (by From, To, Obj).
	Edges []Edge `json:"edges"`
	// Knots lists thread groups (ascending ids) that waited only on
	// each other in the thread-to-thread lock subgraph.
	Knots [][]int `json:"knots,omitempty"`
}

// ThreadNode and friends name graph nodes.
func ThreadNode(id int) string { return fmt.Sprintf("thread:%d", id) }

// IONode names the pseudo-node for a device.
func IONode(obj string) string { return "io:" + obj }

// CPUNode is the pseudo-node for the run queue.
const CPUNode = "cpu"

// thread wait states for the replay state machine.
type wState uint8

const (
	wUnknown wState = iota
	wRunning
	wRunnable
	wBlockedLock
	wBlockedIO
)

type threadState struct {
	state   wState
	at      float64 // time of last accepted event
	obj     string  // lock/device while blocked
	holder  int     // lock holder recorded at block time (-1 unknown)
	times   ThreadTimes
	seen    bool
	lockAcc float64 // wait accumulated in the current blocked-on-lock span
	ioAcc   float64
	runnAcc float64
}

type edgeKey struct {
	from, to, kind, obj string
}

// Build replays the event log into a wait-for graph. It is total and
// tolerant: structurally invalid events, unknown classes, and
// out-of-order timestamps are skipped or clamped, never fatal —
// upstream ingest is responsible for reporting them.
func Build(events []core.SchedEvent) *Graph {
	threads := make(map[int]*threadState)
	edges := make(map[edgeKey]*Edge)
	get := func(id int) *threadState {
		ts, ok := threads[id]
		if !ok {
			ts = &threadState{holder: -1}
			threads[id] = ts
		}
		return ts
	}
	addEdge := func(from, to, kind, obj string, wait float64) {
		if wait <= 0 {
			return
		}
		k := edgeKey{from, to, kind, obj}
		e, ok := edges[k]
		if !ok {
			e = &Edge{From: from, To: to, Kind: kind, Obj: obj}
			edges[k] = e
		}
		e.Wait += wait
		e.Count++
	}
	for _, ev := range events {
		if !ev.Valid() {
			continue
		}
		if _, known := pmu.LookupSchedClass(ev.Class); !known {
			continue
		}
		ts := get(ev.Thread)
		if !ts.seen {
			ts.seen = true
			ts.at = ev.Time
		}
		dt := ev.Time - ts.at
		if dt < 0 {
			dt = 0 // out-of-order: clamp, keep the later anchor
		} else {
			ts.at = ev.Time
		}
		// Attribute the elapsed span to the state the thread was in.
		switch ts.state {
		case wRunning:
			ts.times.Running += dt
		case wRunnable:
			ts.times.RunnableWait += dt
			ts.runnAcc += dt
		case wBlockedLock:
			ts.times.LockWait += dt
			ts.lockAcc += dt
		case wBlockedIO:
			ts.times.IOWait += dt
			ts.ioAcc += dt
		}
		from := ThreadNode(ev.Thread)
		// Close wait spans and transition.
		switch ev.Class {
		case "sched.switch_in":
			if ts.state == wRunnable && ts.runnAcc > 0 {
				addEdge(from, CPUNode, "runnable", "", ts.runnAcc)
				ts.runnAcc = 0
			}
			ts.state = wRunning
		case "sched.switch_out", "sched.wakeup":
			ts.state = wRunnable
		case "sched.block_lock":
			ts.state = wBlockedLock
			ts.obj = ev.Obj
			ts.holder = ev.Waker
		case "sched.unblock_lock":
			holder := ev.Waker
			if holder < 0 {
				holder = ts.holder
			}
			if ts.lockAcc > 0 && holder >= 0 {
				addEdge(from, ThreadNode(holder), "lock", ts.obj, ts.lockAcc)
			}
			ts.lockAcc = 0
			ts.holder = -1
			ts.state = wRunnable
		case "sched.block_io":
			ts.state = wBlockedIO
			ts.obj = ev.Obj
		case "sched.unblock_io":
			if ts.ioAcc > 0 {
				addEdge(from, IONode(ts.obj), "io", ts.obj, ts.ioAcc)
			}
			ts.ioAcc = 0
			ts.state = wRunnable
		}
	}
	// Close any span left open at trace end (truncated collection).
	for id, ts := range threads {
		from := ThreadNode(id)
		if ts.runnAcc > 0 {
			addEdge(from, CPUNode, "runnable", "", ts.runnAcc)
		}
		if ts.lockAcc > 0 && ts.holder >= 0 {
			addEdge(from, ThreadNode(ts.holder), "lock", ts.obj, ts.lockAcc)
		}
		if ts.ioAcc > 0 {
			addEdge(from, IONode(ts.obj), "io", ts.obj, ts.ioAcc)
		}
	}
	g := &Graph{}
	ids := make([]int, 0, len(threads))
	for id := range threads {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		t := threads[id].times
		t.Thread = id
		t.Wall = t.Running + t.LockWait + t.IOWait + t.RunnableWait
		g.Threads = append(g.Threads, t)
	}
	for _, e := range edges {
		g.Edges = append(g.Edges, *e)
	}
	sort.Slice(g.Edges, func(i, j int) bool {
		a, b := g.Edges[i], g.Edges[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.Obj < b.Obj
	})
	g.Knots = g.findKnots(ids)
	return g
}

// findKnots runs SCC/knot detection over the thread-to-thread lock
// subgraph: an SCC with internal edges and none leaving it is a group
// of threads waiting only on each other.
func (g *Graph) findKnots(ids []int) [][]int {
	if len(ids) == 0 {
		return nil
	}
	idx := make(map[int]int, len(ids))
	for i, id := range ids {
		idx[id] = i
	}
	lg := graphalg.NewGraph(len(ids))
	for _, e := range g.Edges {
		if e.Kind != "lock" {
			continue
		}
		var from, to int
		if _, err := fmt.Sscanf(e.From, "thread:%d", &from); err != nil {
			continue
		}
		if _, err := fmt.Sscanf(e.To, "thread:%d", &to); err != nil {
			continue
		}
		fi, fok := idx[from]
		toi, tok := idx[to]
		if !fok || !tok {
			continue
		}
		lg.AddEdge(fi, toi, e.Wait)
	}
	var knots [][]int
	for _, comp := range lg.Knots() {
		members := make([]int, 0, len(comp))
		for _, v := range comp {
			members = append(members, ids[v])
		}
		knots = append(knots, members)
	}
	return knots
}

// Partition aggregates the per-thread times into the exact wall-time
// split: OffCPU == LockWait + IOWait + RunnableWait and Wall == OnCPU +
// OffCPU, built from the same float64 additions so equality is exact.
func (g *Graph) Partition() core.TimePartition {
	var p core.TimePartition
	for _, t := range g.Threads {
		p.OnCPU += t.Running
		p.LockWait += t.LockWait
		p.IOWait += t.IOWait
		p.RunnableWait += t.RunnableWait
	}
	p.OffCPU = p.LockWait + p.IOWait + p.RunnableWait
	p.Wall = p.OnCPU + p.OffCPU
	p.Threads = len(g.Threads)
	return p
}

// Verdicts ranks the off-CPU wait causes: contended locks, saturated
// devices, run-queue pressure, and multi-lock knots (false
// serialization — no single lock explains the group's mutual waiting).
// Sorted descending by Wait, then by kind and object for determinism.
func (g *Graph) Verdicts() []core.WaitVerdict {
	p := g.Partition()
	share := func(w float64) float64 {
		if p.Wall <= 0 {
			return 0
		}
		return w / p.Wall
	}
	type agg struct {
		wait    float64
		waiters map[string]bool
	}
	locks := make(map[string]*agg)
	ios := make(map[string]*agg)
	var runnable agg
	runnable.waiters = make(map[string]bool)
	bump := func(m map[string]*agg, obj, from string, w float64) {
		a, ok := m[obj]
		if !ok {
			a = &agg{waiters: make(map[string]bool)}
			m[obj] = a
		}
		a.wait += w
		a.waiters[from] = true
	}
	for _, e := range g.Edges {
		switch e.Kind {
		case "lock":
			bump(locks, e.Obj, e.From, e.Wait)
		case "io":
			bump(ios, e.Obj, e.From, e.Wait)
		case "runnable":
			runnable.wait += e.Wait
			runnable.waiters[e.From] = true
		}
	}
	var out []core.WaitVerdict
	for obj, a := range locks {
		out = append(out, core.WaitVerdict{
			Kind: "lock", Object: obj, Wait: a.wait,
			Share: share(a.wait), Waiters: len(a.waiters),
		})
	}
	for obj, a := range ios {
		out = append(out, core.WaitVerdict{
			Kind: "io", Object: obj, Wait: a.wait,
			Share: share(a.wait), Waiters: len(a.waiters),
		})
	}
	if runnable.wait > 0 {
		out = append(out, core.WaitVerdict{
			Kind: "runnable", Wait: runnable.wait,
			Share: share(runnable.wait), Waiters: len(runnable.waiters),
		})
	}
	// Knots spanning more than one lock object: false serialization.
	for _, knot := range g.Knots {
		member := make(map[string]bool, len(knot))
		for _, id := range knot {
			member[ThreadNode(id)] = true
		}
		objs := make(map[string]bool)
		var wait float64
		waiters := make(map[string]bool)
		for _, e := range g.Edges {
			if e.Kind == "lock" && member[e.From] && member[e.To] {
				objs[e.Obj] = true
				wait += e.Wait
				waiters[e.From] = true
			}
		}
		if len(objs) < 2 {
			continue // a single hot lock already names this group
		}
		names := make([]string, len(knot))
		for i, id := range knot {
			names[i] = fmt.Sprintf("%d", id)
		}
		out = append(out, core.WaitVerdict{
			Kind:    "knot",
			Object:  "threads " + strings.Join(names, ","),
			Wait:    wait,
			Share:   share(wait),
			Waiters: len(waiters),
			Threads: append([]int(nil), knot...),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Wait != b.Wait {
			return a.Wait > b.Wait
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Object < b.Object
	})
	return out
}
