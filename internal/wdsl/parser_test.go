package wdsl

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// sameAST reports whether two parsed files carry the same content, source
// positions excluded.
func sameAST(a, b *File) bool { return samePosBlind(reflect.ValueOf(a), reflect.ValueOf(b)) }

func samePosBlind(a, b reflect.Value) bool {
	if a.Type() == reflect.TypeOf(Pos{}) {
		return true
	}
	switch a.Kind() {
	case reflect.Pointer:
		return a.IsNil() == b.IsNil() && (a.IsNil() || samePosBlind(a.Elem(), b.Elem()))
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !samePosBlind(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !samePosBlind(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	}
	return reflect.DeepEqual(a.Interface(), b.Interface())
}

// exampleSrc exercises every production: models of all four layer kinds,
// tenants of both classes, and a scenario with settings, a device
// inventory, deploys, both arrival shapes and both storm kinds.
const exampleSrc = `
# An annotated workload: two models, two tenants, one stormy afternoon.
model "echo-lstm" {
  layer lstm hidden=64 steps=2
  layer gru hidden=64 steps=2   # stacked second stage
}
model "aft" {
  layer attention hidden=32 steps=4
}
model "scorer" {
  layer mlp dim=16 layers=3 act=relu
}

tenant "lat-0" class=latency max_leases=8
tenant "bat-0" class=batch weight=2

scenario {
  seed      = 7
  duration  = 30s
  heartbeat = 500ms
  tick      = 1s
  sample    = 25%
  queue_cap = 8
  devices { XCVU37P = 9  XCKU115 = 3 }
  deploy "echo-lstm" tenant="lat-0" replicas=2
  deploy "aft" tenant="bat-0"
  traffic poisson rate=12/s tenant="lat-0" model="echo-lstm"
  traffic diurnal rate=20/s trough=20% period=10s tenant="bat-0" model="aft"
  storm kill at=10s devices=2 for=5s
  storm drain at=20s devices=1 for=4s
}
`

func TestParseExample(t *testing.T) {
	f, err := Parse(exampleSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Models) != 3 || len(f.Tenants) != 2 || f.Scenario == nil {
		t.Fatalf("parsed %d models, %d tenants, scenario=%v", len(f.Models), len(f.Tenants), f.Scenario != nil)
	}
	if f.Models[0].Name != "echo-lstm" || len(f.Models[0].Layers) != 2 {
		t.Errorf("model 0 = %+v", f.Models[0])
	}
	if k := f.Models[2].Layers[0].Kind; k != "mlp" {
		t.Errorf("scorer layer kind = %q", k)
	}
	s := f.Scenario
	if s.Devices["XCVU37P"] != 9 || s.Devices["XCKU115"] != 3 {
		t.Errorf("devices = %v", s.Devices)
	}
	if len(s.Deploys) != 2 || len(s.Traffic) != 2 || len(s.Storms) != 2 {
		t.Errorf("scenario items: %d deploys %d traffic %d storms", len(s.Deploys), len(s.Traffic), len(s.Storms))
	}
	if s.Traffic[1].Shape != "diurnal" {
		t.Errorf("traffic 1 shape = %q", s.Traffic[1].Shape)
	}
}

// TestRoundTrip pins the canonical printer: parse → print → parse yields
// a semantically identical file, and printing that file again yields the
// same bytes (the printer is a fixpoint on its own output).
func TestRoundTrip(t *testing.T) {
	f1, err := Parse(exampleSrc)
	if err != nil {
		t.Fatal(err)
	}
	p1 := f1.Print()
	f2, err := Parse(p1)
	if err != nil {
		t.Fatalf("reparsing printed form: %v\n%s", err, p1)
	}
	if !sameAST(f1, f2) {
		t.Fatalf("round trip changed the AST\nprinted:\n%s", p1)
	}
	if other, err := Parse(strings.Replace(exampleSrc, "hidden=64", "hidden=65", 1)); err != nil || sameAST(f1, other) {
		t.Fatalf("the comparison is blind to a changed attribute (err %v)", err)
	}
	if p2 := f2.Print(); p2 != p1 {
		t.Fatalf("printer not a fixpoint:\nfirst:\n%s\nsecond:\n%s", p1, p2)
	}
}

func TestValueForms(t *testing.T) {
	src := `tenant "x" a=1 b=2.5 c=1h30m d=12.5% e=40/s f=latency g="quo\"ted"`
	// a=1 etc. aren't real tenant attributes; the parser doesn't know
	// schemas — only Compile does.
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	attrs := f.Tenants[0].Attrs
	want := []struct {
		kind ValueKind
		str  string
	}{
		{IntVal, "1"}, {FloatVal, "2.5"}, {DurationVal, "1h30m0s"},
		{PercentVal, "12.5%"}, {RateVal, "40.0/s"}, {IdentVal, "latency"},
		{StringVal, `"quo\"ted"`},
	}
	if len(attrs) != len(want) {
		t.Fatalf("got %d attrs, want %d", len(attrs), len(want))
	}
	for i, w := range want {
		if attrs[i].Value.Kind != w.kind || attrs[i].Value.String() != w.str {
			t.Errorf("attr %d: kind=%v text=%q, want kind=%v text=%q",
				i, attrs[i].Value.Kind, attrs[i].Value.String(), w.kind, w.str)
		}
	}
	if attrs[2].Value.Dur != 90*time.Minute {
		t.Errorf("duration = %v", attrs[2].Value.Dur)
	}
}

func TestParseEmptyAndCommentOnly(t *testing.T) {
	for _, src := range []string{"", "   \n\t ", "# just a comment\n# another\n"} {
		f, err := Parse(src)
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
			continue
		}
		if len(f.Models) != 0 || len(f.Tenants) != 0 || f.Scenario != nil {
			t.Errorf("Parse(%q) produced declarations", src)
		}
	}
}

func TestDeviceShorthand(t *testing.T) {
	f, err := Parse(`scenario { duration = 1s devices = 1000 }`)
	if err != nil {
		t.Fatal(err)
	}
	if f.Scenario.DeviceCount != 1000 || f.Scenario.Devices != nil {
		t.Fatalf("scenario devices = %d / %v", f.Scenario.DeviceCount, f.Scenario.Devices)
	}
	spec, err := Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	c := spec.Scenario.Cluster
	if c["XCVU37P"] != 750 || c["XCKU115"] != 250 {
		t.Errorf("1000-device shorthand split = %v, want 750/250", c)
	}
}

// TestAttrListTermination pins the two-token lookahead: an identifier not
// followed by '=' ends the attribute list instead of being swallowed.
func TestAttrListTermination(t *testing.T) {
	f, err := Parse("tenant \"a\" class=batch\ntenant \"b\"")
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Tenants) != 2 || len(f.Tenants[0].Attrs) != 1 || len(f.Tenants[1].Attrs) != 0 {
		t.Fatalf("tenants = %+v", f.Tenants)
	}
	if !strings.Contains(f.Print(), `tenant "b"`) {
		t.Error("second tenant lost in printing")
	}
}
