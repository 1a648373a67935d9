// Package symshape implements BladeDISC's cross-level symbolic shape
// representation. Tensor dimensions are symbols, not numbers; a Context
// records what is known about each symbol — a static value if any, equality
// with other symbols (union-find), product equalities (reshape preserves
// element count), divisibility, and value ranges. Every later stage (shape
// inference, fusion, codegen, the compilation cache) consults the Context
// instead of concrete shape values, which is what lets one compilation
// serve arbitrary runtime shapes.
package symshape

import (
	"fmt"
	"maps"
	"slices"
	"strings"
)

// DimID identifies a dimension symbol within a Context.
type DimID int32

// Invalid is the zero-ish sentinel for "no dimension".
const Invalid DimID = -1

// Shape is an ordered list of dimension symbols.
type Shape []DimID

// Clone returns a copy of s.
func (s Shape) Clone() Shape { return append(Shape(nil), s...) }

// Rank returns the number of dimensions.
func (s Shape) Rank() int { return len(s) }

// Features selects which classes of shape facts the Context's queries may
// use. It exists for the constraint-granularity ablation (experiment E7):
// a static-shape compiler can only reason about known values, a naive
// dynamic compiler only about symbol equality, BladeDISC about everything.
type Features uint8

const (
	// FeatStatic allows answering queries from known static values.
	FeatStatic Features = 1 << iota
	// FeatEquality allows the symbol-equality (union-find) facts.
	FeatEquality
	// FeatProduct allows product-equality facts (reshape element counts).
	FeatProduct
	// FeatArith allows divisibility and range facts.
	FeatArith

	// FeatAll enables every fact class (the BladeDISC configuration).
	FeatAll = FeatStatic | FeatEquality | FeatProduct | FeatArith
	// FeatStaticOnly models a shape-value-based compiler.
	FeatStaticOnly = FeatStatic
	// FeatEqualityOnly models symbol equality without product facts.
	FeatEqualityOnly = FeatStatic | FeatEquality
)

// dimInfo is the per-root record of everything known about a symbol.
type dimInfo struct {
	static  int64 // -1 if unknown
	divisor int64 // largest known k with k | dim; 1 if none
	lo, hi  int64 // value range; [1, maxInt] if unknown
	name    string
}

const unboundedHi = int64(1) << 40

// Context owns dimension symbols and the facts relating them.
// It is not safe for concurrent mutation.
type Context struct {
	features Features
	parent   []DimID
	rank     []int32
	info     []dimInfo
	statics  map[int64]DimID
	// decomp maps a derived symbol to the symbols whose product defines it
	// (e.g. flattened batch = B*S). Stored against the DimID at creation.
	decomp map[DimID][]DimID
	// decompSum maps a derived symbol to the symbols whose sum defines it
	// (concat extents). Allocated lazily by DeclareSum.
	decompSum map[DimID][]DimID
	// decompQuot maps a derived symbol to a quotient (SplitDim outer dims).
	// Allocated lazily by DeclareQuotient.
	decompQuot map[DimID]quot
	// decompAffine maps a derived symbol to an affine form (conv output
	// extents). Allocated lazily by DeclareAffine.
	decompAffine map[DimID]affine
	// likely maps symbols to their declared hot value (speculation).
	// Allocated lazily by DeclareLikely.
	likely map[DimID]int64
}

// NewContext returns an empty context with the given feature set.
func NewContext(f Features) *Context {
	return &Context{
		features: f,
		statics:  map[int64]DimID{},
		decomp:   map[DimID][]DimID{},
	}
}

// Clone returns an independent copy of c: the same symbols with the same
// IDs and facts. It reads the raw union-find arrays instead of calling find,
// which compresses paths and so writes even on queries; that makes
// concurrent Clones of one context that nobody mutates race-free. The
// decomposition maps are copied; their factor and term slices are shared,
// since they are never written after they are stored.
func (c *Context) Clone() *Context {
	return &Context{
		features:     c.features,
		parent:       slices.Clone(c.parent),
		rank:         slices.Clone(c.rank),
		info:         slices.Clone(c.info),
		statics:      maps.Clone(c.statics),
		decomp:       maps.Clone(c.decomp),
		decompSum:    maps.Clone(c.decompSum),
		decompQuot:   maps.Clone(c.decompQuot),
		decompAffine: maps.Clone(c.decompAffine),
		likely:       maps.Clone(c.likely),
	}
}

// Features reports the feature set the context was created with.
func (c *Context) Features() Features { return c.features }

// SetFeatures replaces the feature set; used by ablation drivers to re-query
// the same facts under a weaker oracle.
func (c *Context) SetFeatures(f Features) { c.features = f }

// NumDims returns the number of symbols created so far.
func (c *Context) NumDims() int { return len(c.parent) }

// NewDim creates a fresh dynamic dimension symbol. The name is for
// diagnostics only.
func (c *Context) NewDim(name string) DimID {
	id := DimID(len(c.parent))
	c.parent = append(c.parent, id)
	c.rank = append(c.rank, 0)
	c.info = append(c.info, dimInfo{static: -1, divisor: 1, lo: 1, hi: unboundedHi, name: name})
	return id
}

// StaticDim returns the interned symbol for a known value v (v >= 0).
func (c *Context) StaticDim(v int64) DimID {
	if v < 0 {
		panic(fmt.Sprintf("symshape: negative static dim %d", v))
	}
	if id, ok := c.statics[v]; ok {
		return id
	}
	id := c.NewDim(fmt.Sprintf("c%d", v))
	inf := &c.info[id]
	inf.static = v
	inf.divisor = v
	if v == 0 {
		inf.divisor = 1
	}
	inf.lo, inf.hi = v, v
	c.statics[v] = id
	return id
}

// StaticShape interns a whole concrete shape.
func (c *Context) StaticShape(dims ...int64) Shape {
	s := make(Shape, len(dims))
	for i, d := range dims {
		s[i] = c.StaticDim(d)
	}
	return s
}

// DynamicShape creates a shape of fresh dynamic symbols named prefix0..n.
func (c *Context) DynamicShape(prefix string, rank int) Shape {
	s := make(Shape, rank)
	for i := range s {
		s[i] = c.NewDim(fmt.Sprintf("%s%d", prefix, i))
	}
	return s
}

// find returns the union-find root of d with path halving.
func (c *Context) find(d DimID) DimID {
	for c.parent[d] != d {
		c.parent[d] = c.parent[c.parent[d]]
		d = c.parent[d]
	}
	return d
}

// Root exposes the canonical representative of d.
func (c *Context) Root(d DimID) DimID { return c.find(d) }

// Unify declares a == b. It merges static values, divisibility and ranges,
// and returns an error if the merged facts are contradictory (e.g. two
// different static values).
func (c *Context) Unify(a, b DimID) error {
	ra, rb := c.find(a), c.find(b)
	if ra == rb {
		return nil
	}
	ia, ib := c.info[ra], c.info[rb]
	merged := dimInfo{name: ia.name}
	switch {
	case ia.static >= 0 && ib.static >= 0 && ia.static != ib.static:
		return fmt.Errorf("symshape: cannot unify %s=%d with %s=%d", ia.name, ia.static, ib.name, ib.static)
	case ia.static >= 0:
		merged.static = ia.static
	default:
		merged.static = ib.static
	}
	merged.divisor = lcm(ia.divisor, ib.divisor)
	merged.lo = max64(ia.lo, ib.lo)
	merged.hi = min64(ia.hi, ib.hi)
	if merged.lo > merged.hi {
		return fmt.Errorf("symshape: unify %s and %s yields empty range [%d,%d]", ia.name, ib.name, merged.lo, merged.hi)
	}
	if merged.static >= 0 {
		merged.divisor = merged.static
		if merged.static == 0 {
			merged.divisor = 1
		}
		merged.lo, merged.hi = merged.static, merged.static
	}
	// Union by rank.
	if c.rank[ra] < c.rank[rb] {
		ra, rb = rb, ra
		merged.name = c.info[ra].name
	}
	c.parent[rb] = ra
	if c.rank[ra] == c.rank[rb] {
		c.rank[ra]++
	}
	c.info[ra] = merged
	// Keep derived-dimension decompositions reachable from the new root so
	// product/sum facts survive unification (e.g. SplitDim unifies a dim
	// with the product of its split factors).
	if _, ok := c.decomp[ra]; !ok {
		if fs, ok := c.decomp[rb]; ok {
			c.decomp[ra] = fs
		}
	}
	if c.decompSum != nil {
		if _, ok := c.decompSum[ra]; !ok {
			if ts, ok := c.decompSum[rb]; ok {
				c.decompSum[ra] = ts
			}
		}
	}
	return nil
}

// MustUnify is Unify that panics on contradiction; for internal invariants.
func (c *Context) MustUnify(a, b DimID) {
	if err := c.Unify(a, b); err != nil {
		panic(err)
	}
}

// StaticValue returns the known value of d, if any.
func (c *Context) StaticValue(d DimID) (int64, bool) {
	inf := c.info[c.find(d)]
	if inf.static >= 0 {
		return inf.static, true
	}
	return 0, false
}

// IsStatic reports whether d has a known value.
func (c *Context) IsStatic(d DimID) bool {
	_, ok := c.StaticValue(d)
	return ok
}

// Equal reports whether a and b are provably the same extent under the
// context's feature set. Note that even identity (a == b) requires the
// equality feature: a shape-value-based compiler (FeatStaticOnly) sees a
// dynamic dimension as an opaque "?" with no symbol identity, which is
// exactly why such compilers cannot fuse across dynamic dims.
func (c *Context) Equal(a, b DimID) bool {
	if c.features&FeatEquality != 0 && (a == b || c.find(a) == c.find(b)) {
		return true
	}
	if c.features&FeatStatic != 0 {
		va, oka := c.StaticValue(a)
		vb, okb := c.StaticValue(b)
		if oka && okb {
			return va == vb
		}
	}
	return false
}

// ShapeEqual reports whether two shapes are provably identical
// dimension-by-dimension.
func (c *Context) ShapeEqual(a, b Shape) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !c.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// DeclareDivisible records that k divides d.
func (c *Context) DeclareDivisible(d DimID, k int64) {
	if k <= 0 {
		panic("symshape: divisor must be positive")
	}
	inf := &c.info[c.find(d)]
	inf.divisor = lcm(inf.divisor, k)
}

// Divisor returns the largest known k dividing d (1 if nothing is known, or
// if arithmetic facts are disabled).
func (c *Context) Divisor(d DimID) int64 {
	if c.features&FeatArith == 0 {
		if v, ok := c.StaticValue(d); ok && c.features&FeatStatic != 0 {
			if v == 0 {
				return 1
			}
			return v
		}
		return 1
	}
	return c.info[c.find(d)].divisor
}

// DivisibleBy reports whether d is provably divisible by k.
func (c *Context) DivisibleBy(d DimID, k int64) bool {
	if k == 1 {
		return true
	}
	if v, ok := c.StaticValue(d); ok && c.features&FeatStatic != 0 {
		return v%k == 0
	}
	return c.Divisor(d)%k == 0
}

// DeclareRange records lo <= d <= hi.
func (c *Context) DeclareRange(d DimID, lo, hi int64) {
	inf := &c.info[c.find(d)]
	inf.lo = max64(inf.lo, lo)
	inf.hi = min64(inf.hi, hi)
}

// Range returns the known [lo, hi] bounds of d.
func (c *Context) Range(d DimID) (lo, hi int64) {
	if c.features&FeatArith == 0 {
		if v, ok := c.StaticValue(d); ok {
			return v, v
		}
		return 1, unboundedHi
	}
	inf := c.info[c.find(d)]
	return inf.lo, inf.hi
}

// Name returns a printable name for d: the value for static dims, else the
// symbol name given at creation (of the current root).
func (c *Context) Name(d DimID) string {
	inf := c.info[c.find(d)]
	if inf.static >= 0 {
		return fmt.Sprintf("%d", inf.static)
	}
	if inf.name == "" {
		return fmt.Sprintf("s%d", c.find(d))
	}
	return inf.name
}

// String renders a shape like [B, 128, H].
func (c *Context) String(s Shape) string {
	parts := make([]string, len(s))
	for i, d := range s {
		parts[i] = c.Name(d)
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

func lcm(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 1
	}
	return a / gcd(a, b) * b
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
