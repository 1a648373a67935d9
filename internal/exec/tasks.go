// The task list and slot plan. At compile time the fusion plan becomes a
// list of tasks in plan order (every unit except zero-cost aliases), every
// runtime value gets a slot, and per-slot reference counts record how many
// tasks (plus graph outputs) still read each value. Run walks the list in
// order on the calling goroutine and returns a pooled buffer as soon as its
// last reader has run; footprint.go replays the same walk at compile time.
package exec

import "godisc/internal/graph"

// task is one step of the run (every non-alias unit). Alias units need no
// runtime action — the alias and its source share a slot — so they are
// resolved away at compile time.
type task struct {
	u *unit
	// inSlots/outSlots align with u.group.Inputs/Outputs (canonical slots).
	inSlots  []int
	outSlots []int
	// reads is the deduplicated slot set this task consumes; finishing
	// the task drops one reference from each.
	reads []int
}

type paramRef struct{ slot, param int }

type constRef struct {
	slot int
	buf  []float32
}

// buildSchedule derives the task list, the slot numbering and the
// per-slot reference counts from the fusion plan.
func (e *Executable) buildSchedule() {
	// Aliases share their source's buffer: resolve every alias chain to
	// its root so the alias and its source are one slot.
	resolve := map[*graph.Node]*graph.Node{}
	for _, u := range e.units {
		if u.alias {
			resolve[u.group.Nodes[0]] = u.group.Nodes[0].Inputs[0]
		}
	}
	canon := func(n *graph.Node) *graph.Node {
		for {
			src, ok := resolve[n]
			if !ok {
				return n
			}
			n = src
		}
	}
	// slotOf numbers the canonical nodes; slotNodes lists them in slot
	// order, so everything derived from the slots below is deterministic.
	slotOf := map[*graph.Node]int{}
	var slotNodes []*graph.Node
	slot := func(n *graph.Node) int {
		n = canon(n)
		if s, ok := slotOf[n]; ok {
			return s
		}
		s := e.nSlots
		e.nSlots++
		slotOf[n] = s
		slotNodes = append(slotNodes, n)
		return s
	}
	for _, u := range e.units {
		if u.alias {
			slot(u.group.Nodes[0])
			continue
		}
		t := &task{u: u}
		for _, in := range u.group.Inputs {
			t.inSlots = append(t.inSlots, slot(in))
		}
		for _, out := range u.group.Outputs {
			t.outSlots = append(t.outSlots, slot(out))
		}
		readSeen := map[int]bool{}
		for _, sl := range t.inSlots {
			if !readSeen[sl] {
				readSeen[sl] = true
				t.reads = append(t.reads, sl)
			}
		}
		e.tasks = append(e.tasks, t)
	}
	// Initial reference counts: one per consuming task plus one per graph
	// output (results must survive to the end of the run).
	e.refs0 = make([]int32, e.nSlots)
	for _, t := range e.tasks {
		for _, sl := range t.reads {
			e.refs0[sl]++
		}
	}
	for _, o := range e.Graph.Outputs {
		sl := slot(o)
		e.outputSlots = append(e.outputSlots, sl)
		e.refs0[sl]++
	}
	for sl, n := range slotNodes {
		switch n.Kind {
		case graph.OpParameter:
			e.paramRefs = append(e.paramRefs, paramRef{slot: sl, param: n.ParamIndex})
		case graph.OpConstant:
			e.constRefs = append(e.constRefs, constRef{slot: sl, buf: e.constBufs[n]})
		}
	}
}
