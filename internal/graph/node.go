package graph

import (
	"godisc/internal/symshape"
	"godisc/internal/tensor"
)

// ReduceAttr parameterizes OpReduce.
type ReduceAttr struct {
	Kind     tensor.ReduceKind
	Axes     []int // normalized, sorted, non-negative
	KeepDims bool
}

// Node is one operation in the graph. Nodes are created only through the
// Graph's builder methods, which run shape inference; user code must treat
// all fields other than Name as read-only.
type Node struct {
	ID     int
	Kind   OpKind
	Inputs []*Node

	// Inferred result type.
	Shape symshape.Shape
	DType tensor.DType

	// Name is an optional diagnostic label.
	Name string

	// Attributes (used per Kind).
	//
	// Lit is the OpConstant payload. It is read-only: Graph.Copy shares it
	// between the original and every copy, and compiled engines alias it.
	Lit        *tensor.Tensor // OpConstant
	ParamIndex int            // OpParameter
	CmpOp      string         // OpCompare: lt le gt ge eq ne
	Reduce     ReduceAttr     // OpReduce
	Perm       []int          // OpTranspose
	Axis       int            // OpConcat
	Starts     []int          // OpSlice
	Sizes      []int          // OpSlice
	Eps        float32        // OpLayerNorm
	To         tensor.DType   // OpConvert
	PadLo      []int          // OpPad
	PadHi      []int          // OpPad
	TransB     bool           // OpMatMul: contract against B's last-two-transposed view
}

// Rank returns the output rank.
func (n *Node) Rank() int { return len(n.Shape) }

// IsLeaf reports whether n has no operands.
func (n *Node) IsLeaf() bool { return n.Kind == OpParameter || n.Kind == OpConstant }
