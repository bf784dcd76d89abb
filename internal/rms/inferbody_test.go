package rms

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mlvfpga/internal/kernels"
	"mlvfpga/internal/resource"
)

// FuzzInferBody holds /infer's decoder — scanInfer, falling back to
// json.Unmarshal when it declines — to encoding/json alone: for any bytes
// it succeeds exactly when json.Unmarshal does and then agrees with it on
// the id and on every float bit for bit. The committed corpus holds shapes
// the scanner must decline (reordered keys, an extra field, "ID", null
// rows, trailing bytes) beside canonical and pretty-printed bodies.
func FuzzInferBody(f *testing.F) {
	// The canonical body takes the fast path, and on a scratch that has
	// held one as large allocates nothing.
	spec := kernels.LayerSpec{Kind: kernels.LSTM, Hidden: 64, TimeSteps: 4}
	canonical, err := json.Marshal(inferBody{ID: 7, Inputs: testInputs(spec, 1)})
	if err != nil {
		f.Fatal(err)
	}
	var sc inferScratch
	if !scanInfer(canonical, &sc) {
		f.Fatalf("scanInfer declined json.Marshal's own /infer body %.80s…", canonical)
	}
	if n := testing.AllocsPerRun(10, func() { scanInfer(canonical, &sc) }); n != 0 {
		f.Errorf("scanInfer allocates %v times on a warmed scratch, want 0", n)
	}
	f.Add(canonical)
	for _, num := range []string{"-0", "1e5", "2.5E-3", "-1.5e+300", "1e-400", "1e400", "01", "+1", ".5", "1.", "-", "1e", "0x1"} {
		f.Add([]byte(`{"id":1,"inputs":[[0.25,` + num + `]]}`))
		f.Add([]byte(`{"id":` + num + `,"inputs":[[1]]}`))
	}

	// One scratch serves every input, as a pooled one serves requests.
	f.Fuzz(func(t *testing.T, b []byte) {
		sc.body = inferBody{}
		var want inferBody
		var gotErr error
		if !scanInfer(b, &sc) {
			gotErr = json.Unmarshal(b, &sc.body)
		}
		got := sc.body
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

// FuzzInferHandler holds POST /infer to the path its scanner and pools
// short-cut: for any body the handler answers what json.Unmarshal, then
// InferAs, then encoding/json answer, status and bytes alike, except
// queue_wait_ns, which is measured, not computed. No body gets a 5xx.
func FuzzInferHandler(f *testing.F) {
	svc, err := NewService(resource.PaperCluster(), testDB(Flexible))
	if err != nil {
		f.Fatal(err)
	}
	lease, err := svc.Deploy(kernels.LayerSpec{Kind: kernels.LSTM, Hidden: 64, TimeSteps: 2})
	if err != nil {
		f.Fatal(err)
	}
	// One machine, requests one at a time: every answer rides slot 0 alone.
	opts := DefaultInferOptions()
	opts.Machines = 1
	dp := NewDataPlane(svc, opts)
	f.Cleanup(dp.Close)
	h := dp.Handler()

	in := testInputs(lease.Spec, 1)
	for _, body := range []inferBody{{lease.ID, in}, {lease.ID, in[:1]}, {lease.ID, [][]float64{in[0][:3]}}, {lease.ID + 1, in}, {lease.ID, nil}} {
		b, err := json.Marshal(body)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(bytes.ReplaceAll(b, []byte(","), []byte(" ,\n")))
	}
	f.Add([]byte(fmt.Sprintf(`{"inputs":[[%s1]],"id":%d}`, strings.Repeat("0.5,", lease.Spec.Hidden-1), lease.ID)))
	f.Add([]byte(fmt.Sprintf(`{"id":%d,"inputs":[[%s70000]]}`, lease.ID, strings.Repeat("-0,", lease.Spec.Hidden-1))))
	f.Add([]byte(`{"id":`))

	f.Fuzz(func(t *testing.T, b []byte) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/infer", bytes.NewReader(b)))

		var body inferBody
		var res *InferResult
		code, err := http.StatusOK, json.Unmarshal(b, &body)
		if err != nil {
			code, err = http.StatusBadRequest, fmt.Errorf("malformed JSON body: %w", err)
		} else if res, err = dp.InferAs("", body.ID, body.Inputs); errors.Is(err, ErrUnknownLease) {
			code = http.StatusNotFound
		} else if err != nil {
			code = http.StatusBadRequest
		}
		var want bytes.Buffer
		if err != nil {
			_ = json.NewEncoder(&want).Encode(map[string]string{"error": err.Error()})
		} else {
			var got InferResult
			_ = json.Unmarshal(w.Body.Bytes(), &got)
			res.QueueWait = got.QueueWait
			_ = json.NewEncoder(&want).Encode(res)
		}
		if w.Code >= 500 || w.Code != code || !bytes.Equal(w.Body.Bytes(), want.Bytes()) {
			t.Fatalf("%.200q: handler answers %d %.300s\nreference path answers %d %.300s", b, w.Code, w.Body.Bytes(), code, want.Bytes())
		}
	})
}
