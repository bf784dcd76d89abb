// Package rtl implements a structural Verilog subset: lexer, parser,
// design elaboration, a two-valued simulator, module equivalence checking
// and FPGA resource estimation.
//
// This is the substrate the paper's decomposing step (§2.2.1) operates on.
// The decomposer needs exactly what the subset captures: the module
// hierarchy, basic modules (modules that instantiate no other module), port
// connectivity with bit widths (communication bandwidth), and an oracle for
// "are these two blocks identical hardware" (data-parallelism detection).
//
// Supported constructs:
//
//	module m #(parameter N = 8) (input [N-1:0] a, output reg [N-1:0] q);
//	  wire [N-1:0] w;
//	  localparam M = N * 2;
//	  assign w = a + 1'b1;
//	  always @(posedge clk) begin q <= w; end
//	  sub #(.W(N)) u0 (.x(w), .y(q));
//	endmodule
//
// Expressions cover the usual bit-vector operators, concatenation,
// replication, indexing, part select and the conditional operator.
// Instances of modules with no definition in the design are "blackboxes" —
// the resource estimator treats known Xilinx primitive names (RAMB36E2,
// URAM288, DSP48E2, FDRE, LUT6, ...) as hard resources.
package rtl

import (
	"fmt"
	"strings"
)

// Dir is a port direction.
type Dir int

// Port directions.
const (
	Input Dir = iota
	Output
	Inout
)

func (d Dir) String() string {
	switch d {
	case Input:
		return "input"
	case Output:
		return "output"
	case Inout:
		return "inout"
	}
	return fmt.Sprintf("Dir(%d)", int(d))
}

// Expr is any expression node.
type Expr interface {
	exprNode()
	// String renders the expression as Verilog source.
	String() string
}

// Ident is a net, port or parameter reference.
type Ident struct {
	Name string
	// Net indexes the module's ports, then its nets, by the name's
	// declaration; it is -1 for a name that declares neither (a
	// parameter, or an unknown name). The parser resolves it at a
	// module's endmodule; an Ident built by hand must set it.
	Net int
}

// Number is a literal. Width 0 means unsized.
type Number struct {
	Value uint64
	Width int // declared width in bits; 0 if unsized
}

// Unary is a unary operator: ~ - ! and the reductions & | ^.
type Unary struct {
	Op string
	X  Expr
}

// Binary is a binary operator.
type Binary struct {
	Op   string
	L, R Expr
}

// Cond is the ?: conditional operator.
type Cond struct {
	If, Then, Else Expr
}

// Index is a single-bit select x[i].
type Index struct {
	X  Expr
	At Expr
}

// Slice is a part select x[msb:lsb].
type Slice struct {
	X        Expr
	Msb, Lsb Expr
}

// Concat is {a, b, c}.
type Concat struct{ Parts []Expr }

// Repl is a replication {n{x}}.
type Repl struct {
	Count Expr
	X     Expr
}

func (*Ident) exprNode()  {}
func (*Number) exprNode() {}
func (*Unary) exprNode()  {}
func (*Binary) exprNode() {}
func (*Cond) exprNode()   {}
func (*Index) exprNode()  {}
func (*Slice) exprNode()  {}
func (*Concat) exprNode() {}
func (*Repl) exprNode()   {}

func (e *Ident) String() string { return e.Name }

func (e *Number) String() string {
	if e.Width == 0 {
		return fmt.Sprintf("%d", e.Value)
	}
	return fmt.Sprintf("%d'h%x", e.Width, e.Value)
}

func (e *Unary) String() string  { return e.Op + "(" + e.X.String() + ")" }
func (e *Binary) String() string { return "(" + e.L.String() + " " + e.Op + " " + e.R.String() + ")" }
func (e *Cond) String() string {
	return "(" + e.If.String() + " ? " + e.Then.String() + " : " + e.Else.String() + ")"
}
func (e *Index) String() string { return e.X.String() + "[" + e.At.String() + "]" }
func (e *Slice) String() string {
	return e.X.String() + "[" + e.Msb.String() + ":" + e.Lsb.String() + "]"
}
func (e *Concat) String() string {
	parts := make([]string, len(e.Parts))
	for i, p := range e.Parts {
		parts[i] = p.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
func (e *Repl) String() string {
	return "{" + e.Count.String() + "{" + e.X.String() + "}}"
}

// Range is a bit range [Msb:Lsb] with possibly-symbolic bounds.
type Range struct {
	Msb, Lsb Expr // nil for scalar (1-bit)
}

// IsScalar reports whether the range denotes a single bit.
func (r Range) IsScalar() bool { return r.Msb == nil }

// Port declares a module port.
type Port struct {
	Name  string
	Dir   Dir
	Range Range
	IsReg bool
}

// Net declares an internal wire or reg.
type Net struct {
	Name  string
	Range Range
	IsReg bool
}

// Param declares a parameter or localparam with its default value.
type Param struct {
	Name    string
	Default Expr
	IsLocal bool
}

// Assign is a continuous assignment.
type Assign struct {
	LHS Expr // Ident, Index, Slice or Concat of those
	RHS Expr
}

// SeqAssign is a nonblocking assignment inside an always block.
type SeqAssign struct {
	LHS Expr
	RHS Expr
	// Guard is the chain of if-conditions enclosing this assignment
	// (all must be true), nil when unconditional.
	Guard []Expr
}

// Always is a clocked process. The subset supports a single posedge/negedge
// clock with optional if/else chains of nonblocking assignments.
type Always struct {
	Clock    string // clock signal name
	ClockNet int    // Clock's net index, as Ident.Net
	Negedge  bool
	Body     []SeqAssign
}

// Instance instantiates another module (or a blackbox primitive).
type Instance struct {
	ModuleName string
	Name       string
	// Params are named parameter overrides (#(.N(8))).
	Params map[string]Expr
	// Conns are the port connections in source order, each port at most
	// once. The parser names a positional connection's port $posN;
	// NewDesign rewrites those to formal port names, so after it only
	// blackbox primitives carry $posN ports.
	Conns []Conn
}

// Conn connects one port of an instance to its actual expression (nil
// for an explicit .p()).
type Conn struct {
	Port string
	Expr Expr
}

// Conn returns port's expression and whether the port is connected.
func (inst *Instance) Conn(port string) (Expr, bool) {
	for _, c := range inst.Conns {
		if c.Port == port {
			return c.Expr, true
		}
	}
	return nil, false
}

// Module is one parsed module definition.
type Module struct {
	Name      string
	Params    []Param
	Ports     []Port
	Nets      []Net
	Assigns   []Assign
	Alwayses  []Always
	Instances []Instance
	// SrcLine is the line of the module keyword, for diagnostics.
	SrcLine int
}

// PortByName returns the port declaration, if present.
func (m *Module) PortByName(name string) (Port, bool) {
	for _, p := range m.Ports {
		if p.Name == name {
			return p, true
		}
	}
	return Port{}, false
}

// declared returns the name and range of the port or net with index i
// (Ident.Net): the ports first, then the nets.
func (m *Module) declared(i int) (string, Range) {
	if i < len(m.Ports) {
		return m.Ports[i].Name, m.Ports[i].Range
	}
	n := m.Nets[i-len(m.Ports)]
	return n.Name, n.Range
}

// IsBasic reports whether the module instantiates no other module — the
// paper's definition of a basic module (§2.1). Blackbox primitive instances
// (RAMB36E2, DSP48E2, ...) do not disqualify a module from being basic:
// they are leaf cells, not Verilog modules of the design.
func (m *Module) IsBasic(isPrimitive func(string) bool) bool {
	for _, inst := range m.Instances {
		if !isPrimitive(inst.ModuleName) {
			return false
		}
	}
	return true
}
