// Package softblock implements the paper's new system abstraction (§2.1):
// a pool of soft blocks organized as a multi-level tree whose internal
// nodes are one of two primitive parallel patterns — data parallelism and
// pipeline parallelism. Leaf soft blocks hold one basic module; non-leaf
// blocks connect their children following one of the two patterns. The two
// primitive patterns are sufficient to construct complex/nested patterns
// such as reduction (Fig. 2c).
//
// Soft blocks carry *no* FPGA-specific resource constraint: their resource
// vectors are annotations, not capacities. That is what makes the
// abstraction a homogeneous view over a heterogeneous FPGA cluster and what
// lets the decomposing step run unconstrained.
package softblock

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"

	"mlvfpga/internal/resource"
)

// Kind classifies a soft block.
type Kind int

const (
	// Leaf blocks contain one basic module (a Verilog module that
	// instantiates no other design module).
	Leaf Kind = iota
	// DataParallel blocks have identical children operating on disjoint
	// data (the SIMD pattern).
	DataParallel
	// Pipeline blocks have children chained through latency-insensitive
	// interfaces (the producer/consumer pattern).
	Pipeline
)

var kindNames = map[Kind]string{
	Leaf:         "leaf",
	DataParallel: "data",
	Pipeline:     "pipeline",
}

func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// MarshalJSON renders the kind as its name.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON parses a kind name.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for kk, n := range kindNames {
		if n == s {
			*k = kk
			return nil
		}
	}
	return fmt.Errorf("softblock: unknown kind %q", s)
}

// Block is one node of a soft-block tree.
type Block struct {
	// ID is unique within one accelerator's tree.
	ID   string `json:"id"`
	Kind Kind   `json:"kind"`

	// ModuleKey names the elaborated basic module held by a Leaf
	// (rtl.ElabModule.Key). Empty for non-leaves.
	ModuleKey string `json:"module_key,omitempty"`
	// Path is the hierarchical instance path of a Leaf's basic module in
	// the source RTL; informative only.
	Path string `json:"path,omitempty"`

	// Resources annotates the FPGA resources this subtree needs. For
	// non-leaf blocks this is the roll-up of the children.
	Resources resource.Vector `json:"resources"`

	// InBits/OutBits are the external interface widths of this block.
	InBits  int `json:"in_bits"`
	OutBits int `json:"out_bits"`

	// Children of a non-leaf block, in pattern order: pipeline children are
	// ordered producer to consumer; data-parallel children are
	// interchangeable copies.
	Children []*Block `json:"children,omitempty"`

	// StageBits annotates a Pipeline block with the connection bandwidth
	// (bits per element) between consecutive children:
	// StageBits[i] connects Children[i] and Children[i+1].
	StageBits []int `json:"stage_bits,omitempty"`
}

// NewLeaf builds a leaf soft block for a basic module.
func NewLeaf(id, moduleKey, path string, res resource.Vector, inBits, outBits int) *Block {
	return &Block{
		ID: id, Kind: Leaf, ModuleKey: moduleKey, Path: path,
		Resources: res, InBits: inBits, OutBits: outBits,
	}
}

// NewPipeline builds a pipeline block over children with the given
// inter-stage bandwidths (len(children)-1 entries).
func NewPipeline(id string, children []*Block, stageBits []int) *Block {
	b := &Block{ID: id, Kind: Pipeline, Children: children, StageBits: stageBits}
	b.recompute()
	return b
}

// NewDataParallel builds a data-parallel block over interchangeable copies.
func NewDataParallel(id string, children []*Block) *Block {
	b := &Block{ID: id, Kind: DataParallel, Children: children}
	b.recompute()
	return b
}

// recompute rolls up resources and interface widths from the children.
func (b *Block) recompute() {
	if b.Kind == Leaf {
		return
	}
	var res resource.Vector
	in, out := 0, 0
	for _, c := range b.Children {
		res = res.Add(c.Resources)
	}
	switch b.Kind {
	case Pipeline:
		if n := len(b.Children); n > 0 {
			in = b.Children[0].InBits
			out = b.Children[n-1].OutBits
		}
	case DataParallel:
		for _, c := range b.Children {
			in += c.InBits
			out += c.OutBits
		}
	}
	b.Resources = res
	b.InBits = in
	b.OutBits = out
}

// Recompute rolls up annotations over the whole subtree (children first).
func (b *Block) Recompute() {
	for _, c := range b.Children {
		c.Recompute()
	}
	b.recompute()
}

// NumLeaves counts leaf blocks.
func (b *Block) NumLeaves() int {
	if b.Kind == Leaf {
		return 1
	}
	n := 0
	for _, c := range b.Children {
		n += c.NumLeaves()
	}
	return n
}

// Depth returns the tree height (a leaf has depth 1).
func (b *Block) Depth() int {
	d := 0
	for _, c := range b.Children {
		d = max(d, c.Depth())
	}
	return d + 1
}

// Slab holds deep copies of subtrees in three arrays, for blocks, child
// lists and stage bandwidths, that it reuses from Reset to Reset.
type Slab struct {
	blocks []Block
	kids   []*Block
	bits   []int
}

// Reset empties the slab; the copies it held must no longer be used.
func (s *Slab) Reset() { s.blocks, s.kids, s.bits = s.blocks[:0], s.kids[:0], s.bits[:0] }

// Clone deep-copies the subtree into the slab. A valid tree of n leaves
// has at most 2n blocks, so the arrays grow at most once per copy.
func (s *Slab) Clone(b *Block) *Block {
	n := 2 * b.NumLeaves()
	s.blocks, s.kids, s.bits = slices.Grow(s.blocks, n), slices.Grow(s.kids, n), slices.Grow(s.bits, n)
	return s.clone(b)
}

func (s *Slab) clone(b *Block) *Block {
	s.blocks = append(s.blocks, *b)
	cp := &s.blocks[len(s.blocks)-1]
	s.bits = append(s.bits, b.StageBits...)
	cp.StageBits = slices.Clip(s.bits[len(s.bits)-len(b.StageBits):])
	s.kids = append(s.kids, b.Children...)
	cp.Children = slices.Clip(s.kids[len(s.kids)-len(b.Children):])
	for i, c := range cp.Children {
		cp.Children[i] = s.clone(c)
	}
	return cp
}

// Validation errors.
var (
	ErrLeafWithChildren = errors.New("softblock: leaf block has children")
	ErrTooFewChildren   = errors.New("softblock: pattern block needs at least 2 children")
	ErrStageBits        = errors.New("softblock: pipeline needs len(children)-1 stage bandwidths")
	ErrDuplicateID      = errors.New("softblock: duplicate block id")
	ErrDataMismatch     = errors.New("softblock: data-parallel children are not interchangeable")
)

// validate checks the structural invariants of the subtree, recording the
// IDs it meets in seen:
//   - leaves have no children and name a module;
//   - pattern nodes have >= 2 children;
//   - pipeline nodes carry len(children)-1 stage bandwidths;
//   - data-parallel children expose identical module structure;
//   - IDs are unique.
func (b *Block) validate(seen map[string]bool) error {
	if seen[b.ID] {
		return fmt.Errorf("%w: %q", ErrDuplicateID, b.ID)
	}
	seen[b.ID] = true
	switch b.Kind {
	case Leaf:
		if len(b.Children) > 0 {
			return fmt.Errorf("%w: %q", ErrLeafWithChildren, b.ID)
		}
		if b.ModuleKey == "" {
			return fmt.Errorf("softblock: leaf %q names no module", b.ID)
		}
		return nil
	case Pipeline:
		if len(b.Children) < 2 {
			return fmt.Errorf("%w: pipeline %q has %d", ErrTooFewChildren, b.ID, len(b.Children))
		}
		if len(b.StageBits) != len(b.Children)-1 {
			return fmt.Errorf("%w: %q has %d children, %d bandwidths",
				ErrStageBits, b.ID, len(b.Children), len(b.StageBits))
		}
	case DataParallel:
		if len(b.Children) < 2 {
			return fmt.Errorf("%w: data %q has %d", ErrTooFewChildren, b.ID, len(b.Children))
		}
		for _, c := range b.Children[1:] {
			if !SameShape(b.Children[0], c) {
				return fmt.Errorf("%w: under %q", ErrDataMismatch, b.ID)
			}
		}
	default:
		return fmt.Errorf("softblock: block %q has invalid kind %d", b.ID, int(b.Kind))
	}
	for _, c := range b.Children {
		if err := c.validate(seen); err != nil {
			return err
		}
	}
	return nil
}

// SameShape reports whether two subtrees have the same structure: kinds,
// child counts, leaf module keys and pipeline stage bandwidths, following
// only the first child of a data-parallel block, whose copies are alike.
// IDs, paths and annotations are ignored. Data-parallel siblings must
// have the same shape.
func SameShape(a, b *Block) bool {
	if a.Kind != b.Kind || len(a.Children) != len(b.Children) {
		return false
	}
	switch a.Kind {
	case Leaf:
		return a.ModuleKey == b.ModuleKey
	case DataParallel:
		return len(a.Children) == 0 || SameShape(a.Children[0], b.Children[0])
	}
	if !slices.Equal(a.StageBits, b.StageBits) {
		return false
	}
	for i, c := range a.Children {
		if !SameShape(c, b.Children[i]) {
			return false
		}
	}
	return true
}

// String renders the tree in indented form, as `mlv decompose` prints it.
func (b *Block) String() string {
	var sb strings.Builder
	b.render(&sb, 0)
	return sb.String()
}

func (b *Block) render(sb *strings.Builder, depth int) {
	sb.WriteString(strings.Repeat("  ", depth))
	switch b.Kind {
	case Leaf:
		fmt.Fprintf(sb, "leaf %s [%s] res{%s}\n", b.ID, b.ModuleKey, b.Resources)
	default:
		fmt.Fprintf(sb, "%s %s (%d children) res{%s}\n", b.Kind, b.ID, len(b.Children), b.Resources)
	}
	for _, c := range b.Children {
		c.render(sb, depth+1)
	}
}

// Accelerator pairs the control-path soft block with the data-path tree,
// the result of the decomposing step's first move (Fig. 3a): the control
// and data path are split at the top of the design.
type Accelerator struct {
	// Name identifies the accelerator design (e.g. "bw_tiles21").
	Name string `json:"name"`
	// Control holds the (undivided) control-path soft block.
	Control *Block `json:"control"`
	// Data is the root of the decomposed data-path tree.
	Data *Block `json:"data"`
}

// Validate checks both trees and that IDs do not collide across them.
func (a *Accelerator) Validate() error {
	if a.Control == nil || a.Data == nil {
		return errors.New("softblock: accelerator needs control and data blocks")
	}
	seen := map[string]bool{}
	if err := a.Control.validate(seen); err != nil {
		return fmt.Errorf("control: %w", err)
	}
	if err := a.Data.validate(seen); err != nil {
		return fmt.Errorf("data: %w", err)
	}
	return nil
}

// MarshalJSON/Unmarshal round-trip through the standard encoder; provided
// as explicit helpers for the tool CLIs.
func (a *Accelerator) Encode() ([]byte, error) { return json.MarshalIndent(a, "", "  ") }

// Decode parses an accelerator from JSON.
func Decode(data []byte) (*Accelerator, error) {
	var a Accelerator
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, err
	}
	return &a, nil
}
