package rms

import (
	"encoding/json"
	"math"
	"testing"

	"mlvfpga/internal/kernels"
)

// FuzzInferBody holds /infer's decoder — scanInfer, falling back to
// json.Unmarshal when it declines — to encoding/json alone: for any bytes
// it succeeds exactly when json.Unmarshal does and then agrees with it on
// the id and on every float bit for bit. The committed corpus holds shapes
// the scanner must decline (reordered keys, an extra field, "ID", null
// rows, trailing bytes) beside canonical and pretty-printed bodies.
func FuzzInferBody(f *testing.F) {
	// The canonical body takes the fast path, in two allocations: the row
	// headers and their one backing array.
	spec := kernels.LayerSpec{Kind: kernels.LSTM, Hidden: 64, TimeSteps: 4}
	canonical, err := json.Marshal(inferBody{ID: 7, Inputs: testInputs(spec, 1)})
	if err != nil {
		f.Fatal(err)
	}
	var req inferBody
	if !scanInfer(canonical, &req) {
		f.Fatalf("scanInfer declined json.Marshal's own /infer body %.80s…", canonical)
	}
	if n := testing.AllocsPerRun(10, func() { scanInfer(canonical, &req) }); n != 2 {
		f.Errorf("scanInfer allocates %v times, want 2", n)
	}
	f.Add(canonical)
	for _, num := range []string{"-0", "1e5", "2.5E-3", "-1.5e+300", "1e-400", "1e400", "01", "+1", ".5", "1.", "-", "1e", "0x1"} {
		f.Add([]byte(`{"id":1,"inputs":[[0.25,` + num + `]]}`))
		f.Add([]byte(`{"id":` + num + `,"inputs":[[1]]}`))
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		var got, want inferBody
		var gotErr error
		if !scanInfer(b, &got) {
			gotErr = json.Unmarshal(b, &got)
		}
		wantErr := json.Unmarshal(b, &want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%q: decoder error %v, json.Unmarshal error %v", b, gotErr, wantErr)
		}
		if wantErr != nil {
			return
		}
		if got.ID != want.ID || len(got.Inputs) != len(want.Inputs) {
			t.Fatalf("%q: id %d with %d rows, json.Unmarshal has %d with %d", b, got.ID, len(got.Inputs), want.ID, len(want.Inputs))
		}
		for r, row := range want.Inputs {
			if len(got.Inputs[r]) != len(row) || (got.Inputs[r] == nil) != (row == nil) {
				t.Fatalf("%q: row %d is %v, json.Unmarshal has %v", b, r, got.Inputs[r], row)
			}
			for i, v := range row {
				if math.Float64bits(got.Inputs[r][i]) != math.Float64bits(v) {
					t.Fatalf("%q: [%d][%d] = %v, json.Unmarshal has %v", b, r, i, got.Inputs[r][i], v)
				}
			}
		}
	})
}
