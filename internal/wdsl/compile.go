package wdsl

import (
	"fmt"
	"time"

	"mlvfpga/internal/kernels"
	"mlvfpga/internal/resource"
	"mlvfpga/internal/tenant"
)

// LayerIR is one compiled layer: either a recurrent cell the runtime can
// lease (Rnn valid) or a feed-forward chain (Mlp valid when Kind=="mlp").
type LayerIR struct {
	Kind string
	Rnn  kernels.LayerSpec
	Mlp  kernels.MLPSpec
}

// ModelIR is a compiled model graph.
type ModelIR struct {
	Name   string
	Layers []LayerIR
}

// Leasable reports whether every layer of the model can be deployed as a
// runtime lease (the lease path serves recurrent cells; MLP chains
// compile to AS-ISA programs but have no lease form yet).
func (m *ModelIR) Leasable() bool {
	for _, l := range m.Layers {
		if l.Kind == "mlp" {
			return false
		}
	}
	return true
}

// DeployIR is one scenario deploy directive.
type DeployIR struct {
	Model    string
	Tenant   string
	Replicas int
}

// TrafficIR is one open-loop arrival process.
type TrafficIR struct {
	Shape  string  // poisson | diurnal
	Rate   float64 // mean arrivals per second (peak rate for diurnal)
	Trough float64 // diurnal: fraction of peak at the valley, 0..1
	Period time.Duration
	Tenant string
	Model  string
}

// StormIR is one fault storm: a correlated batch of kills or an
// administrative drain wave.
type StormIR struct {
	Kind    string // kill | drain
	At      time.Duration
	Devices int
	// For is how long the storm holds before devices revive/undrain;
	// zero means the outage lasts to the end of the run.
	For time.Duration
}

// ScenarioIR is the compiled scenario block.
type ScenarioIR struct {
	Seed        int64
	Cluster     resource.ClusterSpec
	DeviceCount int
	Duration    time.Duration
	Heartbeat   time.Duration
	Tick        time.Duration
	// Sample is the fraction of arrivals executed as real inferences on
	// the stack under test (the rest flow through the analytic queue
	// model only).
	Sample float64
	// QueueCap sheds an arrival when its lease already has this many
	// service times of backlog queued.
	QueueCap int
	Deploys  []DeployIR
	Traffic  []TrafficIR
	Storms   []StormIR
}

// Spec is a fully compiled workload description.
type Spec struct {
	Models   []ModelIR
	ByName   map[string]*ModelIR
	Tenants  []tenant.Tenant
	Scenario *ScenarioIR
}

// Compile lowers a parsed file to the typed IR, checking attribute
// schemas, cross-references and value ranges. Errors are positioned
// *Error values whose production names the declaration being checked.
func Compile(f *File) (*Spec, error) {
	s := &Spec{ByName: map[string]*ModelIR{}}
	for _, m := range f.Models {
		ir, err := compileModel(m)
		if err != nil {
			return nil, err
		}
		if _, dup := s.ByName[ir.Name]; dup {
			return nil, &Error{Pos: m.Pos, Production: "model", Msg: fmt.Sprintf("duplicate model %q", ir.Name)}
		}
		s.Models = append(s.Models, *ir)
		s.ByName[ir.Name] = &s.Models[len(s.Models)-1]
	}
	seenTenant := map[string]bool{}
	for _, t := range f.Tenants {
		tn, err := compileTenant(t)
		if err != nil {
			return nil, err
		}
		if seenTenant[tn.ID] {
			return nil, &Error{Pos: t.Pos, Production: "tenant", Msg: fmt.Sprintf("duplicate tenant %q", tn.ID)}
		}
		seenTenant[tn.ID] = true
		s.Tenants = append(s.Tenants, *tn)
	}
	if f.Scenario != nil {
		ir, err := compileScenario(f.Scenario, s, seenTenant)
		if err != nil {
			return nil, err
		}
		s.Scenario = ir
	}
	return s, nil
}

// attrSchema walks an attribute list against a field table, failing on
// unknown names; each field func validates and stores one value.
func attrSchema(production string, attrs []Attr, fields map[string]func(Value) error) error {
	for _, a := range attrs {
		set, ok := fields[a.Name]
		if !ok {
			return &Error{Pos: a.Pos, Production: production,
				Msg: fmt.Sprintf("unknown attribute %q (known: %s)", a.Name, knownNames(fields))}
		}
		if err := set(a.Value); err != nil {
			return &Error{Pos: a.Value.Pos, Production: production,
				Msg: fmt.Sprintf("attribute %q: %v", a.Name, err)}
		}
	}
	return nil
}

func knownNames(fields map[string]func(Value) error) string {
	names := make([]string, 0, len(fields))
	for k := range fields {
		names = append(names, k)
	}
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	out := ""
	for i, n := range names {
		if i > 0 {
			out += ", "
		}
		out += n
	}
	return out
}

func wantPosInt(dst *int) func(Value) error {
	return func(v Value) error {
		if v.Kind != IntVal || v.Int <= 0 {
			return fmt.Errorf("want a positive integer, found %s", v)
		}
		*dst = int(v.Int)
		return nil
	}
}

func wantInt64(dst *int64) func(Value) error {
	return func(v Value) error {
		if v.Kind != IntVal {
			return fmt.Errorf("want an integer, found %s", v)
		}
		*dst = v.Int
		return nil
	}
}

func wantDuration(dst *time.Duration) func(Value) error {
	return func(v Value) error {
		if v.Kind != DurationVal {
			return fmt.Errorf("want a duration like 500ms, found %s", v)
		}
		*dst = v.Dur
		return nil
	}
}

func wantString(dst *string) func(Value) error {
	return func(v Value) error {
		if v.Kind != StringVal {
			return fmt.Errorf("want a quoted string, found %s", v)
		}
		*dst = v.Str
		return nil
	}
}

// wantFraction accepts a percent (divided by 100) or a plain 0..1 float.
func wantFraction(dst *float64) func(Value) error {
	return func(v Value) error {
		f := 0.0
		switch v.Kind {
		case PercentVal:
			f = v.Float / 100
		case FloatVal:
			f = v.Float
		case IntVal:
			f = float64(v.Int)
		default:
			return fmt.Errorf("want a percentage like 10%%, found %s", v)
		}
		if f < 0 || f > 1 {
			return fmt.Errorf("want a value in [0%%, 100%%], found %s", v)
		}
		*dst = f
		return nil
	}
}

func compileModel(m Model) (*ModelIR, error) {
	if len(m.Layers) == 0 {
		return nil, &Error{Pos: m.Pos, Production: "model", Msg: fmt.Sprintf("model %q has no layers", m.Name)}
	}
	ir := &ModelIR{Name: m.Name}
	for _, l := range m.Layers {
		layer := LayerIR{Kind: l.Kind}
		if l.Kind == "mlp" {
			var dim, nlayers int
			act := "relu"
			err := attrSchema("layer", l.Attrs, map[string]func(Value) error{
				"dim":    wantPosInt(&dim),
				"layers": wantPosInt(&nlayers),
				"act": func(v Value) error {
					if v.Kind != IdentVal {
						return fmt.Errorf("want relu, sigmoid, tanh or linear, found %s", v)
					}
					act = v.Str
					return nil
				},
			})
			if err != nil {
				return nil, err
			}
			if dim == 0 || nlayers == 0 {
				return nil, &Error{Pos: l.Pos, Production: "layer",
					Msg: "mlp layer needs dim= and layers="}
			}
			a, ok := map[string]kernels.Activation{
				"relu": kernels.ReLU, "sigmoid": kernels.SigmoidAct,
				"tanh": kernels.TanhAct, "linear": kernels.NoAct,
			}[act]
			if !ok {
				return nil, &Error{Pos: l.Pos, Production: "layer",
					Msg: fmt.Sprintf("unknown activation %q (want relu, sigmoid, tanh or linear)", act)}
			}
			layer.Mlp = kernels.MLPSpec{Dim: dim, Layers: nlayers, Act: a}
		} else {
			var hidden, steps int
			err := attrSchema("layer", l.Attrs, map[string]func(Value) error{
				"hidden": wantPosInt(&hidden),
				"steps":  wantPosInt(&steps),
			})
			if err != nil {
				return nil, err
			}
			if hidden == 0 || steps == 0 {
				return nil, &Error{Pos: l.Pos, Production: "layer",
					Msg: fmt.Sprintf("%s layer needs hidden= and steps=", l.Kind)}
			}
			kind, _ := kernels.ParseKind(l.Kind) // the parser admits no other name
			layer.Rnn = kernels.LayerSpec{Kind: kind, Hidden: hidden, TimeSteps: steps}
		}
		ir.Layers = append(ir.Layers, layer)
	}
	return ir, nil
}

func compileTenant(t Tenant) (*tenant.Tenant, error) {
	if t.Name == "" {
		return nil, &Error{Pos: t.Pos, Production: "tenant", Msg: "tenant name must not be empty"}
	}
	tn := &tenant.Tenant{ID: t.Name, Key: t.Name + "-key", Class: tenant.Latency}
	err := attrSchema("tenant", t.Attrs, map[string]func(Value) error{
		"class": func(v Value) error {
			switch {
			case v.Kind == IdentVal && v.Str == "latency":
				tn.Class = tenant.Latency
			case v.Kind == IdentVal && v.Str == "batch":
				tn.Class = tenant.Batch
			default:
				return fmt.Errorf("want latency or batch, found %s", v)
			}
			return nil
		},
		"key":           wantString(&tn.Key),
		"weight":        wantPosInt(&tn.Weight),
		"max_leases":    wantPosInt(&tn.Quotas.MaxLeases),
		"max_devices":   wantPosInt(&tn.Quotas.MaxDevices),
		"max_blocks":    wantPosInt(&tn.Quotas.MaxBlocks),
		"max_in_flight": wantPosInt(&tn.Quotas.MaxInFlight),
	})
	if err != nil {
		return nil, err
	}
	return tn, nil
}

func compileScenario(sc *Scenario, spec *Spec, tenants map[string]bool) (*ScenarioIR, error) {
	ir := &ScenarioIR{
		Seed:      1,
		Heartbeat: 500 * time.Millisecond,
		Tick:      time.Second,
		Sample:    0.10,
		QueueCap:  8,
	}
	for _, a := range sc.Settings {
		err := attrSchema("setting", []Attr{a}, map[string]func(Value) error{
			"seed":      wantInt64(&ir.Seed),
			"duration":  wantDuration(&ir.Duration),
			"heartbeat": wantDuration(&ir.Heartbeat),
			"tick":      wantDuration(&ir.Tick),
			"sample":    wantFraction(&ir.Sample),
			"queue_cap": wantPosInt(&ir.QueueCap),
		})
		if err != nil {
			return nil, err
		}
	}
	if ir.Duration <= 0 {
		return nil, &Error{Pos: sc.Pos, Production: "scenario", Msg: "scenario needs duration="}
	}
	if ir.Heartbeat <= 0 || ir.Tick <= 0 {
		return nil, &Error{Pos: sc.Pos, Production: "scenario", Msg: "heartbeat and tick must be positive"}
	}

	// Device inventory: an explicit per-part map, or the `devices = N`
	// shorthand splitting N across the paper's two parts at its 3:1 ratio.
	switch {
	case sc.Devices != nil:
		ir.Cluster = resource.ClusterSpec{}
		for part, n := range sc.Devices {
			if _, err := resource.LookupDevice(part); err != nil {
				return nil, &Error{Pos: sc.DevicesPos, Production: "devices",
					Msg: fmt.Sprintf("unknown device part %q", part)}
			}
			ir.Cluster[part] = n
			ir.DeviceCount += n
		}
	case sc.DeviceCount > 0:
		ir.DeviceCount = sc.DeviceCount
		vu := (3*sc.DeviceCount + 3) / 4
		ku := sc.DeviceCount - vu
		ir.Cluster = resource.ClusterSpec{}
		if vu > 0 {
			ir.Cluster[resource.XCVU37P.Name] = vu
		}
		if ku > 0 {
			ir.Cluster[resource.XCKU115.Name] = ku
		}
	default:
		ir.Cluster = resource.PaperCluster()
		ir.DeviceCount = 4
	}

	for _, d := range sc.Deploys {
		dep := DeployIR{Model: d.Model, Replicas: 1}
		err := attrSchema("deploy", d.Attrs, map[string]func(Value) error{
			"tenant":   wantString(&dep.Tenant),
			"replicas": wantPosInt(&dep.Replicas),
		})
		if err != nil {
			return nil, err
		}
		m, ok := spec.ByName[d.Model]
		if !ok {
			return nil, &Error{Pos: d.Pos, Production: "deploy", Msg: fmt.Sprintf("unknown model %q", d.Model)}
		}
		if !m.Leasable() {
			return nil, &Error{Pos: d.Pos, Production: "deploy",
				Msg: fmt.Sprintf("model %q contains an mlp layer; mlp chains compile but have no lease form", d.Model)}
		}
		if dep.Tenant != "" && !tenants[dep.Tenant] {
			return nil, &Error{Pos: d.Pos, Production: "deploy", Msg: fmt.Sprintf("unknown tenant %q", dep.Tenant)}
		}
		if dep.Tenant == "" && len(spec.Tenants) > 0 {
			return nil, &Error{Pos: d.Pos, Production: "deploy",
				Msg: "deploy needs tenant= when tenants are declared"}
		}
		ir.Deploys = append(ir.Deploys, dep)
	}

	deployed := map[string]bool{}
	for _, d := range ir.Deploys {
		deployed[d.Model] = true
	}
	for _, tr := range sc.Traffic {
		t := TrafficIR{Shape: tr.Shape, Trough: 0.25, Period: ir.Duration}
		err := attrSchema("traffic", tr.Attrs, map[string]func(Value) error{
			"rate": func(v Value) error {
				if v.Kind != RateVal || v.Float <= 0 {
					return fmt.Errorf("want a positive rate like 40/s, found %s", v)
				}
				t.Rate = v.Float
				return nil
			},
			"tenant": wantString(&t.Tenant),
			"model":  wantString(&t.Model),
			"trough": wantFraction(&t.Trough),
			"period": wantDuration(&t.Period),
		})
		if err != nil {
			return nil, err
		}
		if t.Rate == 0 {
			return nil, &Error{Pos: tr.Pos, Production: "traffic", Msg: "traffic needs rate="}
		}
		if t.Model == "" {
			return nil, &Error{Pos: tr.Pos, Production: "traffic", Msg: "traffic needs model="}
		}
		if !deployed[t.Model] {
			return nil, &Error{Pos: tr.Pos, Production: "traffic",
				Msg: fmt.Sprintf("traffic targets model %q which the scenario never deploys", t.Model)}
		}
		if t.Tenant != "" && !tenants[t.Tenant] {
			return nil, &Error{Pos: tr.Pos, Production: "traffic", Msg: fmt.Sprintf("unknown tenant %q", t.Tenant)}
		}
		if t.Tenant == "" && len(spec.Tenants) > 0 {
			return nil, &Error{Pos: tr.Pos, Production: "traffic",
				Msg: "traffic needs tenant= when tenants are declared"}
		}
		if t.Period <= 0 {
			return nil, &Error{Pos: tr.Pos, Production: "traffic", Msg: "period must be positive"}
		}
		ir.Traffic = append(ir.Traffic, t)
	}

	for _, st := range sc.Storms {
		s := StormIR{Kind: st.Kind}
		err := attrSchema("storm", st.Attrs, map[string]func(Value) error{
			"at":      wantDuration(&s.At),
			"devices": wantPosInt(&s.Devices),
			"for":     wantDuration(&s.For),
		})
		if err != nil {
			return nil, err
		}
		if s.Devices == 0 {
			return nil, &Error{Pos: st.Pos, Production: "storm", Msg: "storm needs devices="}
		}
		if s.At <= 0 || s.At >= ir.Duration {
			return nil, &Error{Pos: st.Pos, Production: "storm",
				Msg: fmt.Sprintf("storm at=%s must fall inside the run (0, %s)", s.At, ir.Duration)}
		}
		ir.Storms = append(ir.Storms, s)
	}
	return ir, nil
}

// BuildKernels compiles every layer of every model in the spec down to
// AS-ISA programs (tiles=1, deterministic weights), proving the described
// graphs are expressible in the ISA. It returns the per-model program
// instruction counts, keyed by model name.
func BuildKernels(spec *Spec, seed int64) (map[string][]int, error) {
	out := map[string][]int{}
	for _, m := range spec.Models {
		var counts []int
		for i, l := range m.Layers {
			if l.Kind == "mlp" {
				w, err := kernels.RandomMLPWeights(l.Mlp, seed+int64(i))
				if err != nil {
					return nil, fmt.Errorf("wdsl: model %q layer %d: %w", m.Name, i, err)
				}
				k, err := kernels.BuildMLP(w, 1)
				if err != nil {
					return nil, fmt.Errorf("wdsl: model %q layer %d: %w", m.Name, i, err)
				}
				counts = append(counts, len(k.Prog))
				continue
			}
			k, err := kernels.BuildRandom(l.Rnn, 1, seed+int64(i))
			if err != nil {
				return nil, fmt.Errorf("wdsl: model %q layer %d: %w", m.Name, i, err)
			}
			counts = append(counts, len(k.Prog))
		}
		out[m.Name] = counts
	}
	return out, nil
}
