package wdsl

import (
	"strconv"
	"strings"
	"time"
)

// ValueKind discriminates the literal forms an attribute value can take.
type ValueKind int

// Value kinds.
const (
	IntVal ValueKind = iota
	FloatVal
	DurationVal // 500ms, 1h30m — Go duration syntax
	PercentVal  // 12.5% — stored as the stated number, not the fraction
	RateVal     // 40/s — events per second
	IdentVal    // bare word: latency, poisson, ...
	StringVal   // quoted
)

// Value is one attribute value with its source position.
type Value struct {
	Pos   Pos
	Kind  ValueKind
	Int   int64         // IntVal
	Float float64       // FloatVal, PercentVal, RateVal
	Dur   time.Duration // DurationVal
	Str   string        // IdentVal, StringVal
}

func (v Value) String() string {
	switch v.Kind {
	case IntVal:
		return strconv.FormatInt(v.Int, 10)
	case FloatVal:
		return formatFloat(v.Float)
	case DurationVal:
		return v.Dur.String()
	case PercentVal:
		return formatFloat(v.Float) + "%"
	case RateVal:
		return formatFloat(v.Float) + "/s"
	case IdentVal:
		return v.Str
	case StringVal:
		return quote(v.Str)
	}
	return "<invalid>"
}

// quoter escapes exactly what the lexer unescapes; every other rune,
// printable or not, is written as it is and lexes back to itself.
var quoter = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`, "\t", `\t`)

// quote renders s as a string literal that lexes back to s.
func quote(s string) string { return `"` + quoter.Replace(s) + `"` }

func formatFloat(f float64) string {
	// 'f' (never scientific): the grammar has no exponent form. An
	// integer-valued float prints like an int, which re-parses as IntVal;
	// keep a trailing .0 so the kind survives the print→parse round trip.
	s := strconv.FormatFloat(f, 'f', -1, 64)
	if !strings.Contains(s, ".") {
		s += ".0"
	}
	return s
}

// Attr is one `name = value` attribute.
type Attr struct {
	Pos   Pos
	Name  string
	Value Value
}

// Layer is one `layer <kind> k=v ...` line inside a model.
type Layer struct {
	Pos   Pos
	Kind  string // lstm | gru | attention | mlp
	Attrs []Attr
}

// Model is a named graph of layers.
type Model struct {
	Pos    Pos
	Name   string
	Layers []Layer
}

// Tenant is a `tenant "id" k=v ...` declaration.
type Tenant struct {
	Pos   Pos
	Name  string
	Attrs []Attr
}

// Deploy is a `deploy "model" k=v ...` item inside the scenario.
type Deploy struct {
	Pos   Pos
	Model string
	Attrs []Attr
}

// Traffic is a `traffic <shape> k=v ...` item (shape: poisson | diurnal).
type Traffic struct {
	Pos   Pos
	Shape string
	Attrs []Attr
}

// Storm is a `storm <kind> k=v ...` item (kind: kill | drain).
type Storm struct {
	Pos   Pos
	Kind  string
	Attrs []Attr
}

// Scenario is the single `scenario { ... }` block.
type Scenario struct {
	Pos      Pos
	Settings []Attr         // seed = 7, duration = 30s, ...
	Devices  map[string]int // nil unless a devices block/setting appeared
	// DeviceCount is set instead of Devices for `devices = N` shorthand.
	DeviceCount int
	DevicesPos  Pos
	Deploys     []Deploy
	Traffic     []Traffic
	Storms      []Storm
}

// File is one parsed .mlw file.
type File struct {
	Models   []Model
	Tenants  []Tenant
	Scenario *Scenario
}
