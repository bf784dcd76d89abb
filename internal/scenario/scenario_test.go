package scenario

import (
	"bytes"
	"cmp"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"mlvfpga/internal/wdsl"
)

var update = flag.Bool("update", false, "rewrite testdata/scenarios/*.report.json")

func loadSpec(t testing.TB, path string) *wdsl.Spec {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := wdsl.Parse(string(src))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	spec, err := wdsl.Compile(f)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return spec
}

func compileSrc(t *testing.T, src string) *wdsl.Spec {
	t.Helper()
	f, err := wdsl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := wdsl.Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestCommittedScenarios runs every spec committed under
// testdata/scenarios to completion: all invariant families green, the
// report self-validates, traffic actually flowed, and the report is byte
// for byte the committed <spec>.report.json beside it (what `mlv scenario
// run -out` writes). Run with -update only for an intended change of
// behaviour.
func TestCommittedScenarios(t *testing.T) {
	paths, err := filepath.Glob("../../testdata/scenarios/*.mlw")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed scenarios found: %v", err)
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			if testing.Short() && filepath.Base(path) == "diurnal-1000.mlw" {
				t.Skip("fleet-scale spec skipped in -short")
			}
			rep, err := Run(loadSpec(t, path), filepath.Base(path))
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Valid {
				t.Fatalf("scenario not green: %s", rep.Violation)
			}
			if err := rep.Validate(); err != nil {
				t.Fatal(err)
			}
			if rep.Arrivals == 0 || rep.Sampled == 0 || rep.Leases == 0 {
				t.Fatalf("no traffic flowed: %+v", rep)
			}
			for _, v := range rep.Invariants {
				if v.Status != "green" {
					t.Errorf("invariant %s: %s (%s)", v.Invariant, v.Status, v.Detail)
				}
			}
			blob, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			blob = append(blob, '\n')
			golden := strings.TrimSuffix(path, ".mlw") + ".report.json"
			if *update {
				if err := os.WriteFile(golden, blob, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(blob, want) {
				t.Errorf("report differs from %s:\n%s", golden, blob)
			}
		})
	}
}

// TestScenarioBuildsServedLeases pins which lease engines a Run builds
// beside the DES: those of the leases a sampled arrival names, and no
// other. The committed 1000-device spec serves all six of its leases, the
// 1000-device replay spec below one of its four, and either spec sampling
// nothing builds none. The arrivals stay merged in (at, block, seq) order.
func TestScenarioBuildsServedLeases(t *testing.T) {
	for _, spec := range []*wdsl.Spec{
		loadSpec(t, "../../testdata/scenarios/diurnal-1000.mlw"),
		compileSrc(t, detLarge),
	} {
		arrivals, built := genArrivals(spec)
		want := make([]bool, len(built))
		for _, a := range arrivals {
			want[a.lease] = want[a.lease] || a.sampled
		}
		if !slices.Equal(built, want) {
			t.Errorf("seed %d builds leases %v, want those with a sampled arrival: %v", spec.Scenario.Seed, built, want)
		}
		if !slices.IsSortedFunc(arrivals, func(a, b arrival) int {
			return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.block, b.block), cmp.Compare(a.seq, b.seq))
		}) {
			t.Errorf("seed %d: arrivals are not in (at, block, seq) order", spec.Scenario.Seed)
		}
		spec.Scenario.Sample = 0
		if _, built = genArrivals(spec); slices.Contains(built, true) {
			t.Errorf("seed %d at sample = 0%% builds leases %v, want none", spec.Scenario.Seed, built)
		}
	}
}

const detSmall = `
model "echo" { layer lstm hidden=64 steps=2 }
model "aft" { layer attention hidden=32 steps=4 }
tenant "lat-0" class=latency
tenant "bat-0" class=batch
scenario {
  seed     = 3
  duration = 5s
  sample   = 20%
  devices { XCVU37P = 8  XCKU115 = 2 }
  deploy "echo" tenant="lat-0" replicas=2
  deploy "aft" tenant="bat-0"
  traffic diurnal rate=16/s trough=25% period=2s tenant="lat-0" model="echo"
  traffic poisson rate=6/s tenant="bat-0" model="aft"
  storm kill at=2s devices=2 for=1s
}
`

const detLarge = `
model "echo" { layer lstm hidden=64 steps=2 }
tenant "lat-0" class=latency
tenant "bat-0" class=batch
scenario {
  seed     = 17
  duration = 5s
  sample   = 5%
  devices  = 1000
  deploy "echo" tenant="lat-0" replicas=3
  deploy "echo" tenant="bat-0"
  traffic diurnal rate=30/s trough=20% period=2s tenant="lat-0" model="echo"
  traffic poisson rate=10/s tenant="bat-0" model="echo"
  storm kill at=2s devices=15 for=1s
}
`

// TestScenarioDeterminism replays the same spec+seed twice at 10-device
// and 1000-device scale: trace hashes and entire SLO reports must be
// identical.
func TestScenarioDeterminism(t *testing.T) {
	for _, tc := range []struct {
		name string
		src  string
	}{
		{"10-device", detSmall},
		{"1000-device", detLarge},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && tc.name == "1000-device" {
				t.Skip("fleet-scale replay skipped in -short")
			}
			a, err := Run(compileSrc(t, tc.src), tc.name)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(compileSrc(t, tc.src), tc.name)
			if err != nil {
				t.Fatal(err)
			}
			if !a.Valid || !b.Valid {
				t.Fatalf("runs not green: %q / %q", a.Violation, b.Violation)
			}
			if a.TraceHash != b.TraceHash {
				t.Fatalf("trace hashes differ: %s vs %s", a.TraceHash, b.TraceHash)
			}
			if !reflect.DeepEqual(a, b) {
				aj, _ := json.Marshal(a)
				bj, _ := json.Marshal(b)
				t.Fatalf("reports differ:\n%s\n%s", aj, bj)
			}
		})
	}
}

// TestReportJSONRoundTrip pins that a report survives the write→read→
// validate path the CLI uses, and that tampering is caught.
func TestReportJSONRoundTrip(t *testing.T) {
	rep, err := Run(compileSrc(t, detSmall), "roundtrip")
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("re-read report invalid: %v", err)
	}
	if back.TraceHash != rep.TraceHash || back.Arrivals != rep.Arrivals {
		t.Fatal("round trip lost fields")
	}
	// Tampering: a report claiming green while carrying a violation, a
	// broken SLO sum, and a truncated verdict list must all be rejected.
	bad := back
	bad.Violation = "step 3: invariant \"golden-equivalence\": boom"
	if err := bad.Validate(); err == nil {
		t.Error("violation with valid=true passed validation")
	}
	bad = back
	bad.Classes["latency"].Served += 7
	if err := bad.Validate(); err == nil {
		t.Error("broken served+shed sum passed validation")
	}
	// (restore for the next check — Classes is shared state)
	bad.Classes["latency"].Served -= 7
	bad = back
	bad.Invariants = nil
	if err := bad.Validate(); err == nil {
		t.Error("empty verdict list passed validation")
	}
}

// TestScenarioErrors covers engine-level spec rejections (distinct from
// parse/compile diagnostics): no scenario block, nothing deployed, storms
// larger than the fleet.
func TestScenarioErrors(t *testing.T) {
	spec := compileSrc(t, `model "m" { layer lstm hidden=4 steps=1 }`)
	if _, err := Run(spec, "x"); err == nil {
		t.Error("specless run succeeded")
	}
	spec = compileSrc(t, `scenario { duration = 1s }`)
	if _, err := Run(spec, "x"); err == nil {
		t.Error("deployless run succeeded")
	}
	spec = compileSrc(t, `
model "m" { layer lstm hidden=16 steps=1 }
scenario { duration = 5s devices { XCVU37P = 3 }
  deploy "m"
  traffic poisson rate=2/s model="m"
  storm kill at=1s devices=2
}`)
	if _, err := Run(spec, "x"); err == nil {
		t.Error("storm eating all-but-one device succeeded")
	}
}
