package graph

import (
	"fmt"
	"slices"
	"strings"

	"godisc/internal/symshape"
	"godisc/internal/tensor"
)

// Graph is a directed acyclic tensor computation. It owns a symshape
// Context so that all symbolic shape facts discovered during construction
// and optimization live in one place — the cross-level shape representation.
type Graph struct {
	Name    string
	Ctx     *symshape.Context
	Params  []*Node
	Outputs []*Node

	nodes  []*Node // insertion order; Toposort() for a valid schedule
	nextID int
}

// New creates an empty graph with a fresh full-featured shape context.
func New(name string) *Graph {
	return &Graph{Name: name, Ctx: symshape.NewContext(symshape.FeatAll)}
}

// NewWithContext creates an empty graph over an existing context (used by
// tests that pre-populate shape facts).
func NewWithContext(name string, ctx *symshape.Context) *Graph {
	return &Graph{Name: name, Ctx: ctx}
}

// add registers a node, assigning its ID.
func (g *Graph) add(n *Node) *Node {
	n.ID = g.nextID
	g.nextID++
	g.nodes = append(g.nodes, n)
	return n
}

// Nodes returns all nodes in insertion order (not necessarily topological
// after graph rewrites; use Toposort for scheduling).
func (g *Graph) Nodes() []*Node { return g.nodes }

// NumNodes returns the node count including dead nodes not yet swept.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// SetOutputs declares the graph results.
func (g *Graph) SetOutputs(outs ...*Node) { g.Outputs = outs }

// Toposort returns the nodes reachable from the outputs in dependency
// order (inputs before users). It panics on cycles, which cannot occur for
// builder-constructed graphs.
func (g *Graph) Toposort() []*Node {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	state := make(map[*Node]int, len(g.nodes))
	var order []*Node
	var visit func(n *Node)
	visit = func(n *Node) {
		switch state[n] {
		case black:
			return
		case gray:
			panic("graph: cycle detected")
		}
		state[n] = gray
		for _, in := range n.Inputs {
			visit(in)
		}
		state[n] = black
		order = append(order, n)
	}
	for _, o := range g.Outputs {
		visit(o)
	}
	return order
}

// Users returns a map from each node to the nodes that consume it, over the
// reachable subgraph. Output nodes additionally appear in the Roots set.
func (g *Graph) Users() map[*Node][]*Node {
	users := map[*Node][]*Node{}
	for _, n := range g.Toposort() {
		for _, in := range n.Inputs {
			users[in] = append(users[in], n)
		}
	}
	return users
}

// Sweep drops unreachable nodes from the node list; rewrites call it after
// replacing uses.
func (g *Graph) Sweep() int {
	live := map[*Node]bool{}
	for _, n := range g.Toposort() {
		live[n] = true
	}
	kept := g.nodes[:0]
	removed := 0
	for _, n := range g.nodes {
		if live[n] {
			kept = append(kept, n)
		} else {
			removed++
		}
	}
	g.nodes = kept
	return removed
}

// ReplaceAllUses redirects every use of old (including graph outputs) to new.
func (g *Graph) ReplaceAllUses(old, new *Node) {
	if old == new {
		return
	}
	for _, n := range g.nodes {
		for i, in := range n.Inputs {
			if in == old {
				n.Inputs[i] = new
			}
		}
	}
	for i, o := range g.Outputs {
		if o == old {
			g.Outputs[i] = new
		}
	}
}

// Clone appends a copy of n (same kind, inputs and attributes) to the
// graph and returns it. Used by the producer-duplication pass; the clone
// shares the (immutable) shape and attribute slices.
func (g *Graph) Clone(n *Node) *Node {
	if n.Kind == OpParameter {
		panic("graph: cannot clone a parameter")
	}
	c := *n
	c.Inputs = append([]*Node(nil), n.Inputs...)
	return g.add(&c)
}

// Copy returns a deep structural copy of g: fresh nodes with the same IDs
// and order, inputs, parameters and outputs remapped onto them, fresh shape
// and attribute slices, and a clone of the shape context. Constant payloads
// (Node.Lit) are shared, not copied. Copy only reads g, so any number of
// goroutines may copy one graph that nobody mutates; each copy may then be
// optimized and compiled on its own.
func (g *Graph) Copy() *Graph {
	c := &Graph{
		Name:   g.Name,
		Ctx:    g.Ctx.Clone(),
		nodes:  make([]*Node, len(g.nodes)),
		nextID: g.nextID,
	}
	// of maps each original node to its copy. Nodes outside g.nodes (a
	// parameter a Sweep dropped, say) are copied on first reference.
	of := make(map[*Node]*Node, len(g.nodes))
	var get func(n *Node) *Node
	get = func(n *Node) *Node {
		if m, ok := of[n]; ok {
			return m
		}
		m := new(Node)
		*m = *n
		of[n] = m
		m.Shape = n.Shape.Clone()
		m.Reduce.Axes = slices.Clone(n.Reduce.Axes)
		m.Perm = slices.Clone(n.Perm)
		m.Starts = slices.Clone(n.Starts)
		m.Sizes = slices.Clone(n.Sizes)
		m.PadLo = slices.Clone(n.PadLo)
		m.PadHi = slices.Clone(n.PadHi)
		m.Inputs = mapNodes(n.Inputs, get)
		return m
	}
	for i, n := range g.nodes {
		c.nodes[i] = get(n)
	}
	c.Params = mapNodes(g.Params, get)
	c.Outputs = mapNodes(g.Outputs, get)
	return c
}

// mapNodes maps a node list through get, keeping nil as nil.
func mapNodes(ns []*Node, get func(*Node) *Node) []*Node {
	if ns == nil {
		return nil
	}
	out := make([]*Node, len(ns))
	for i, n := range ns {
		out[i] = get(n)
	}
	return out
}

// Verify checks structural invariants: operand dtypes/shapes consistent
// with each op's semantics under the shape context, parameters registered,
// and outputs reachable. It returns the first violation found.
func (g *Graph) Verify() error {
	if len(g.Outputs) == 0 {
		return fmt.Errorf("graph %s: no outputs", g.Name)
	}
	seen := map[*Node]bool{}
	for _, n := range g.Toposort() {
		seen[n] = true
		for _, in := range n.Inputs {
			if !seen[in] {
				return fmt.Errorf("graph %s: node %d uses undominated input", g.Name, n.ID)
			}
		}
		if err := g.verifyNode(n); err != nil {
			return fmt.Errorf("graph %s: node %d (%s): %w", g.Name, n.ID, n.Kind, err)
		}
	}
	for i, p := range g.Params {
		if p.Kind != OpParameter || p.ParamIndex != i {
			return fmt.Errorf("graph %s: Params[%d] is not parameter %d", g.Name, i, i)
		}
	}
	return nil
}

func (g *Graph) verifyNode(n *Node) error {
	arity := map[OpKind]int{
		OpParameter: 0, OpConstant: 0,
		OpSelect: 3, OpLayerNorm: 3,
		OpMatMul: 2, OpGather: 2, OpConv1D: 2,
	}
	want, ok := arity[n.Kind]
	switch {
	case ok:
		if len(n.Inputs) != want {
			return fmt.Errorf("arity %d, want %d", len(n.Inputs), want)
		}
	case n.Kind.IsElementwiseUnary() || n.Kind == OpReduce || n.Kind == OpSoftmax ||
		n.Kind == OpReshape || n.Kind == OpTranspose || n.Kind == OpSlice || n.Kind == OpPad:
		if len(n.Inputs) != 1 {
			return fmt.Errorf("arity %d, want 1", len(n.Inputs))
		}
	case n.Kind.IsElementwiseBinary():
		if len(n.Inputs) != 2 {
			return fmt.Errorf("arity %d, want 2", len(n.Inputs))
		}
	case n.Kind == OpConcat:
		if len(n.Inputs) < 1 {
			return fmt.Errorf("concat needs inputs")
		}
	default:
		return fmt.Errorf("unknown op")
	}

	switch n.Kind {
	case OpConstant:
		if n.Lit == nil {
			return fmt.Errorf("constant without literal")
		}
		if len(n.Shape) != n.Lit.Rank() {
			return fmt.Errorf("constant shape rank mismatch")
		}
	case OpMatMul:
		a, b := n.Inputs[0], n.Inputs[1]
		if a.Rank() < 2 || b.Rank() < 2 {
			return fmt.Errorf("matmul operands must have rank>=2")
		}
		ka := a.Shape[a.Rank()-1]
		kb := b.Shape[b.Rank()-2]
		if n.TransB {
			kb = b.Shape[b.Rank()-1]
		}
		if !g.Ctx.Equal(ka, kb) {
			return fmt.Errorf("contraction dims %s vs %s not provably equal",
				g.Ctx.Name(ka), g.Ctx.Name(kb))
		}
	case OpReduce:
		for _, a := range n.Reduce.Axes {
			if a < 0 || a >= n.Inputs[0].Rank() {
				return fmt.Errorf("reduce axis %d out of range", a)
			}
		}
	case OpTranspose:
		if len(n.Perm) != n.Inputs[0].Rank() {
			return fmt.Errorf("perm rank mismatch")
		}
	case OpReshape:
		if !g.Ctx.ProductEqual(n.Inputs[0].Shape, n.Shape) {
			return fmt.Errorf("reshape %s -> %s does not provably preserve element count",
				g.Ctx.String(n.Inputs[0].Shape), g.Ctx.String(n.Shape))
		}
	case OpSelect:
		if n.Inputs[0].DType != tensor.Bool {
			return fmt.Errorf("select predicate must be bool")
		}
	case OpGather:
		if n.Inputs[1].DType != tensor.I32 {
			return fmt.Errorf("gather indices must be i32")
		}
	case OpConv1D:
		if n.Inputs[0].Rank() != 3 || n.Inputs[1].Rank() != 3 {
			return fmt.Errorf("conv1d operands must be rank 3")
		}
	case OpPad:
		if len(n.PadLo) != n.Inputs[0].Rank() || len(n.PadHi) != n.Inputs[0].Rank() {
			return fmt.Errorf("pad amounts rank mismatch")
		}
	}
	return nil
}

// String renders the reachable graph one node per line for debugging and
// golden tests.
func (g *Graph) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "graph %s {\n", g.Name)
	for _, n := range g.Toposort() {
		fmt.Fprintf(&sb, "  %%%d = %s %s%s", n.ID, n.Kind, n.DType, g.Ctx.String(n.Shape))
		if len(n.Inputs) > 0 {
			ins := make([]string, len(n.Inputs))
			for i, in := range n.Inputs {
				ins[i] = fmt.Sprintf("%%%d", in.ID)
			}
			fmt.Fprintf(&sb, " (%s)", strings.Join(ins, ", "))
		}
		switch n.Kind {
		case OpParameter:
			fmt.Fprintf(&sb, " idx=%d", n.ParamIndex)
		case OpReduce:
			fmt.Fprintf(&sb, " kind=%s axes=%v keep=%v", n.Reduce.Kind, n.Reduce.Axes, n.Reduce.KeepDims)
		case OpTranspose:
			fmt.Fprintf(&sb, " perm=%v", n.Perm)
		case OpCompare:
			fmt.Fprintf(&sb, " cmp=%s", n.CmpOp)
		case OpConcat:
			fmt.Fprintf(&sb, " axis=%d", n.Axis)
		}
		if n.Name != "" {
			fmt.Fprintf(&sb, " // %s", n.Name)
		}
		sb.WriteString("\n")
	}
	outs := make([]string, len(g.Outputs))
	for i, o := range g.Outputs {
		outs[i] = fmt.Sprintf("%%%d", o.ID)
	}
	fmt.Fprintf(&sb, "  return %s\n}\n", strings.Join(outs, ", "))
	return sb.String()
}
