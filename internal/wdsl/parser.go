package wdsl

import (
	"fmt"
	"strconv"
	"time"
)

// The grammar (canonical form; '#' starts a line comment anywhere):
//
//	file     := { model | tenant | scenario }
//	model    := "model" string "{" { layer } "}"
//	layer    := "layer" kind { attr }
//	kind     := "lstm" | "gru" | "attention" | "mlp"
//	tenant   := "tenant" string { attr }
//	scenario := "scenario" "{" { setting | devices | deploy | traffic | storm } "}"
//	setting  := ident "=" value
//	devices  := "devices" ( "=" int | "{" { ident "=" int } "}" )
//	deploy   := "deploy" string { attr }
//	traffic  := "traffic" ident { attr }
//	storm    := "storm" ident { attr }
//	attr     := ident "=" value
//	value    := int | float | duration | percent | rate | ident | string
//	percent  := (int | float) "%"
//	rate     := (int | float) "/" "s"
//
// Attribute lists are delimited by lookahead: they extend while the next
// token is an identifier immediately followed by '='.

// Parse parses one .mlw source text. The error, when non-nil, is always
// a *Error carrying position and production.
func Parse(src string) (*File, error) {
	p := &parser{toks: lex(src)}
	f, err := p.file()
	if err != nil {
		return nil, err
	}
	return f, nil
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) peek() token { return p.toks[p.i] }
func (p *parser) peek2() token { // second token of lookahead
	if p.i+1 < len(p.toks) {
		return p.toks[p.i+1]
	}
	return p.toks[len(p.toks)-1]
}

func (p *parser) take() token {
	t := p.toks[p.i]
	if p.i < len(p.toks)-1 {
		p.i++
	}
	return t
}

func (p *parser) errf(pos Pos, production, format string, args ...any) *Error {
	return &Error{Pos: pos, Production: production, Msg: fmt.Sprintf(format, args...)}
}

// expect consumes one token of the given kind or fails the production.
func (p *parser) expect(kind tokKind, production string) (token, *Error) {
	t := p.peek()
	if t.kind == tokErr {
		return t, p.errf(t.pos, production, "%s", t.text)
	}
	if t.kind != kind {
		return t, p.errf(t.pos, production, "expected %s, found %s", kind, describe(t))
	}
	return p.take(), nil
}

func describe(t token) string {
	switch t.kind {
	case tokIdent, tokNumber:
		return fmt.Sprintf("%s %q", t.kind, t.text)
	case tokString:
		return fmt.Sprintf("string %s", strconv.Quote(t.text))
	case tokEOF:
		return "end of input"
	}
	return t.kind.String()
}

func (p *parser) file() (*File, *Error) {
	f := &File{}
	for {
		t := p.peek()
		switch {
		case t.kind == tokEOF:
			return f, nil
		case t.kind == tokErr:
			return nil, p.errf(t.pos, "file", "%s", t.text)
		case t.kind == tokIdent && t.text == "model":
			m, err := p.model()
			if err != nil {
				return nil, err
			}
			f.Models = append(f.Models, *m)
		case t.kind == tokIdent && t.text == "tenant":
			tn, err := p.tenant()
			if err != nil {
				return nil, err
			}
			f.Tenants = append(f.Tenants, *tn)
		case t.kind == tokIdent && t.text == "scenario":
			if f.Scenario != nil {
				return nil, p.errf(t.pos, "file", "duplicate scenario block (first at %s)", f.Scenario.Pos)
			}
			s, err := p.scenario()
			if err != nil {
				return nil, err
			}
			f.Scenario = s
		default:
			return nil, p.errf(t.pos, "file",
				"expected 'model', 'tenant' or 'scenario', found %s", describe(t))
		}
	}
}

func (p *parser) model() (*Model, *Error) {
	kw := p.take() // "model"
	name, err := p.expect(tokString, "model")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLBrace, "model"); err != nil {
		return nil, err
	}
	m := &Model{Pos: kw.pos, Name: name.text}
	for {
		t := p.peek()
		if t.kind == tokRBrace {
			p.take()
			return m, nil
		}
		if t.kind == tokIdent && t.text == "layer" {
			l, err := p.layer()
			if err != nil {
				return nil, err
			}
			m.Layers = append(m.Layers, *l)
			continue
		}
		return nil, p.errf(t.pos, "model", "expected 'layer' or '}', found %s", describe(t))
	}
}

var layerKinds = map[string]bool{"lstm": true, "gru": true, "attention": true, "mlp": true}

func (p *parser) layer() (*Layer, *Error) {
	kw := p.take() // "layer"
	kind, err := p.expect(tokIdent, "layer")
	if err != nil {
		return nil, err
	}
	if !layerKinds[kind.text] {
		return nil, p.errf(kind.pos, "layer",
			"unknown layer kind %q (want lstm, gru, attention or mlp)", kind.text)
	}
	attrs, err := p.attrs("layer")
	if err != nil {
		return nil, err
	}
	return &Layer{Pos: kw.pos, Kind: kind.text, Attrs: attrs}, nil
}

func (p *parser) tenant() (*Tenant, *Error) {
	kw := p.take() // "tenant"
	name, err := p.expect(tokString, "tenant")
	if err != nil {
		return nil, err
	}
	attrs, err := p.attrs("tenant")
	if err != nil {
		return nil, err
	}
	return &Tenant{Pos: kw.pos, Name: name.text, Attrs: attrs}, nil
}

func (p *parser) scenario() (*Scenario, *Error) {
	kw := p.take() // "scenario"
	if _, err := p.expect(tokLBrace, "scenario"); err != nil {
		return nil, err
	}
	s := &Scenario{Pos: kw.pos}
	for {
		t := p.peek()
		switch {
		case t.kind == tokRBrace:
			p.take()
			return s, nil
		case t.kind == tokIdent && t.text == "devices":
			if err := p.devices(s); err != nil {
				return nil, err
			}
		case t.kind == tokIdent && t.text == "deploy":
			p.take()
			name, err := p.expect(tokString, "deploy")
			if err != nil {
				return nil, err
			}
			attrs, err2 := p.attrs("deploy")
			if err2 != nil {
				return nil, err2
			}
			s.Deploys = append(s.Deploys, Deploy{Pos: t.pos, Model: name.text, Attrs: attrs})
		case t.kind == tokIdent && t.text == "traffic":
			p.take()
			shape, err := p.expect(tokIdent, "traffic")
			if err != nil {
				return nil, err
			}
			if shape.text != "poisson" && shape.text != "diurnal" {
				return nil, p.errf(shape.pos, "traffic",
					"unknown arrival shape %q (want poisson or diurnal)", shape.text)
			}
			attrs, err2 := p.attrs("traffic")
			if err2 != nil {
				return nil, err2
			}
			s.Traffic = append(s.Traffic, Traffic{Pos: t.pos, Shape: shape.text, Attrs: attrs})
		case t.kind == tokIdent && t.text == "storm":
			p.take()
			kind, err := p.expect(tokIdent, "storm")
			if err != nil {
				return nil, err
			}
			if kind.text != "kill" && kind.text != "drain" {
				return nil, p.errf(kind.pos, "storm",
					"unknown storm kind %q (want kill or drain)", kind.text)
			}
			attrs, err2 := p.attrs("storm")
			if err2 != nil {
				return nil, err2
			}
			s.Storms = append(s.Storms, Storm{Pos: t.pos, Kind: kind.text, Attrs: attrs})
		case t.kind == tokIdent && p.peek2().kind == tokEq:
			a, err := p.attr("setting")
			if err != nil {
				return nil, err
			}
			s.Settings = append(s.Settings, *a)
		default:
			return nil, p.errf(t.pos, "scenario",
				"expected a setting, 'devices', 'deploy', 'traffic', 'storm' or '}', found %s", describe(t))
		}
	}
}

// devices parses either the `devices = N` shorthand or the explicit
// `devices { PART = N ... }` inventory.
func (p *parser) devices(s *Scenario) *Error {
	kw := p.take() // "devices"
	if s.Devices != nil || s.DeviceCount != 0 {
		return p.errf(kw.pos, "devices", "duplicate devices declaration (first at %s)", s.DevicesPos)
	}
	s.DevicesPos = kw.pos
	t := p.peek()
	switch t.kind {
	case tokEq:
		p.take()
		n, err := p.expect(tokNumber, "devices")
		if err != nil {
			return err
		}
		v, perr := strconv.ParseInt(n.text, 10, 64)
		if perr != nil || v <= 0 {
			return p.errf(n.pos, "devices", "device count must be a positive integer, found %q", n.text)
		}
		s.DeviceCount = int(v)
		return nil
	case tokLBrace:
		p.take()
		s.Devices = map[string]int{}
		for {
			t := p.peek()
			if t.kind == tokRBrace {
				p.take()
				return nil
			}
			part, err := p.expect(tokIdent, "devices")
			if err != nil {
				return err
			}
			if _, err := p.expect(tokEq, "devices"); err != nil {
				return err
			}
			n, err := p.expect(tokNumber, "devices")
			if err != nil {
				return err
			}
			v, perr := strconv.ParseInt(n.text, 10, 64)
			if perr != nil || v <= 0 {
				return p.errf(n.pos, "devices", "device count must be a positive integer, found %q", n.text)
			}
			if _, dup := s.Devices[part.text]; dup {
				return p.errf(part.pos, "devices", "duplicate device part %q", part.text)
			}
			s.Devices[part.text] = int(v)
		}
	}
	return p.errf(t.pos, "devices", "expected '=' or '{', found %s", describe(t))
}

// attrs parses a possibly-empty attribute list: it extends while the next
// token is an identifier immediately followed by '='.
func (p *parser) attrs(production string) ([]Attr, *Error) {
	var out []Attr
	seen := map[string]bool{}
	for p.peek().kind == tokIdent && p.peek2().kind == tokEq {
		a, err := p.attr(production)
		if err != nil {
			return nil, err
		}
		if seen[a.Name] {
			return nil, p.errf(a.Pos, production, "duplicate attribute %q", a.Name)
		}
		seen[a.Name] = true
		out = append(out, *a)
	}
	if t := p.peek(); t.kind == tokErr {
		return nil, p.errf(t.pos, production, "%s", t.text)
	}
	return out, nil
}

func (p *parser) attr(production string) (*Attr, *Error) {
	name := p.take() // ident, guaranteed by caller's lookahead
	p.take()         // '='
	v, err := p.value(production)
	if err != nil {
		return nil, err
	}
	return &Attr{Pos: name.pos, Name: name.text, Value: *v}, nil
}

// value parses one literal, resolving the raw number token into
// int/float/duration and absorbing a '%' or '/s' suffix.
func (p *parser) value(production string) (*Value, *Error) {
	t := p.peek()
	switch t.kind {
	case tokIdent:
		p.take()
		return &Value{Pos: t.pos, Kind: IdentVal, Str: t.text}, nil
	case tokString:
		p.take()
		return &Value{Pos: t.pos, Kind: StringVal, Str: t.text}, nil
	case tokNumber:
		p.take()
		v, err := p.number(t, production)
		if err != nil {
			return nil, err
		}
		switch p.peek().kind {
		case tokPercent:
			p.take()
			f, err := numeric(v)
			if err != nil {
				return nil, p.errf(t.pos, production, "percent needs a plain number, found %q", t.text)
			}
			return &Value{Pos: t.pos, Kind: PercentVal, Float: f}, nil
		case tokSlash:
			p.take()
			unit, uerr := p.expect(tokIdent, production)
			if uerr != nil {
				return nil, uerr
			}
			if unit.text != "s" {
				return nil, p.errf(unit.pos, production, "rate unit must be /s, found /%s", unit.text)
			}
			f, err := numeric(v)
			if err != nil {
				return nil, p.errf(t.pos, production, "rate needs a plain number, found %q", t.text)
			}
			return &Value{Pos: t.pos, Kind: RateVal, Float: f}, nil
		}
		return v, nil
	case tokErr:
		return nil, p.errf(t.pos, production, "%s", t.text)
	}
	return nil, p.errf(t.pos, production, "expected a value, found %s", describe(t))
}

// number resolves a raw number token: pure digits are IntVal, a dotted
// digit run is FloatVal (no exponent form exists in the grammar), and
// anything with letters must parse as a Go duration.
func (p *parser) number(t token, production string) (*Value, *Error) {
	if isDigits(t.text) {
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf(t.pos, production, "integer %q out of range", t.text)
		}
		return &Value{Pos: t.pos, Kind: IntVal, Int: i}, nil
	}
	if isDecimal(t.text) {
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errf(t.pos, production, "float %q out of range", t.text)
		}
		return &Value{Pos: t.pos, Kind: FloatVal, Float: f}, nil
	}
	if d, err := time.ParseDuration(t.text); err == nil {
		if d < 0 {
			return nil, p.errf(t.pos, production, "negative duration %q", t.text)
		}
		return &Value{Pos: t.pos, Kind: DurationVal, Dur: d}, nil
	}
	return nil, p.errf(t.pos, production,
		"malformed number %q (want an integer, float or duration like 500ms)", t.text)
}

func isDigits(s string) bool {
	for _, r := range s {
		if r < '0' || r > '9' {
			return false
		}
	}
	return len(s) > 0
}

// isDecimal matches digits '.' digits — the only float literal form.
func isDecimal(s string) bool {
	dot := -1
	for i, r := range s {
		if r == '.' {
			if dot >= 0 {
				return false
			}
			dot = i
			continue
		}
		if r < '0' || r > '9' {
			return false
		}
	}
	return dot > 0 && dot < len(s)-1
}

func numeric(v *Value) (float64, error) {
	switch v.Kind {
	case IntVal:
		return float64(v.Int), nil
	case FloatVal:
		return v.Float, nil
	}
	return 0, fmt.Errorf("not numeric")
}
