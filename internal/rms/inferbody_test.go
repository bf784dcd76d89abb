package rms

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"mlvfpga/internal/fp16"
	"mlvfpga/internal/kernels"
	"mlvfpga/internal/resource"
)

// FuzzInferBody holds /infer's decoder — scanInfer, falling back to
// json.Unmarshal when it declines — to encoding/json alone: for any bytes
// it succeeds exactly when json.Unmarshal does and then agrees with it on
// the id and the shape, and on every float as the data plane reads one:
// each rounds to json.Unmarshal's binary16 (fp16.FromFloat64), and is
// json.Unmarshal's float bit for bit wherever that binary16 is not finite,
// since an InputRangeError names it. The committed corpus holds shapes
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
	if !scanInfer(canonical, &sc, nil) {
		f.Fatalf("scanInfer declined json.Marshal's own /infer body %.80s…", canonical)
	}
	if n := testing.AllocsPerRun(10, func() { scanInfer(canonical, &sc, nil) }); n != 0 {
		f.Errorf("scanInfer allocates %v times on a warmed scratch, want 0", n)
	}
	f.Add(canonical)
	for _, num := range []string{"-0", "1e5", "2.5E-3", "-1.5e+300", "1e-400", "1e400", "01", "+1", ".5", "1.", "-", "1e", "0x1"} {
		f.Add([]byte(`{"id":1,"inputs":[[0.25,` + num + `]]}`))
		f.Add([]byte(`{"id":` + num + `,"inputs":[[1]]}`))
	}
	// Binary16 ties, the binary16 overflow tie, a binary32 tie and a
	// number within 2^-50 of it, and the most digits the scanner reads.
	f.Add([]byte(`{"id":1,"inputs":[[1.00048828125,-65520,1.000000059604644775390625,1.000000059604644775,9999999999999999999e-22]]}`))
	// 20 digits that spell 2^64, which wrap a uint64 to 0, and a clamped
	// exponent beside 1001 fraction digits.
	f.Add([]byte(`{"id":1,"inputs":[[18446.744073709551616,18446744073709551616,0.` + strings.Repeat("0", 1000) + `1e1002]]}`))

	// One scratch serves every input, as a pooled one serves requests.
	f.Fuzz(func(t *testing.T, b []byte) {
		sc.body = inferBody{}
		var want inferBody
		var gotErr error
		if !scanInfer(b, &sc, nil) {
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
				g, h := got.Inputs[r][i], fp16.FromFloat64(v)
				if fp16.FromFloat64(g) != h || !h.IsFinite() && math.Float64bits(g) != math.Float64bits(v) {
					t.Fatalf("%q: [%d][%d] = %v, json.Unmarshal has %v", b, r, i, g, v)
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
	// Bodies that do not fit the lease, which the scanner counts past: too
	// many rows; a bad value before a row of another width; another width
	// before too many rows.
	row := strings.Repeat("0.5,", lease.Spec.Hidden-1) + "1"
	f.Add([]byte(fmt.Sprintf(`{"id":%d,"inputs":[[%s],[%s],[%s]]}`, lease.ID, row, row, row)))
	f.Add([]byte(fmt.Sprintf(`{"id":%d,"inputs":[[%s,1e9],[%s,1]]}`, lease.ID, row[4:], row)))
	f.Add([]byte(fmt.Sprintf(`{"id":%d,"inputs":[[%s],[1],[%s]]}`, lease.ID, row, row)))
	// 20 significant digits whose uint64 reading wraps to 0.
	f.Add([]byte(fmt.Sprintf(`{"id":%d,"inputs":[[%s,18446.744073709551616]]}`, lease.ID, row[4:])))

	f.Fuzz(func(t *testing.T, b []byte) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/infer", bytes.NewReader(b)))

		var body inferBody
		var res InferResult
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

// parseHalf reads text as the scanner reads an input: its binary16, or
// false where the scanner leaves it to ParseFloat.
func parseHalf(t testing.TB, text []byte) (fp16.Num, bool) {
	s := scanner{b: text}
	if s.number() == nil || s.i != len(text) {
		t.Fatalf("%q is not a JSON number", text)
	}
	return s.half()
}

// checkHalf fails unless the scanner reads text as
// fp16.FromFloat64(strconv.ParseFloat(text)) or declines; it reports
// whether it decided.
func checkHalf(t testing.TB, text []byte) bool {
	h, ok := parseHalf(t, text)
	if !ok {
		return false
	}
	v, err := strconv.ParseFloat(string(text), 64)
	if want := fp16.FromFloat64(v); err != nil || h != want {
		t.Fatalf("%s: scanner reads %#04x, ParseFloat %v (%v) rounds to %#04x", text, uint16(h), v, err, uint16(want))
	}
	return true
}

// TestParseHalfMidpoints holds the scanner's binary16 reading of a number
// to fp16.FromFloat64(strconv.ParseFloat) where rounding is closest to
// changing: every midpoint between neighbouring binary16 values (the
// last one the overflow tie 65520), the binary32 midpoints beside it, each
// of those and its float64 neighbours, written to 17 and to 21
// significant digits, of either sign.
func TestParseHalfMidpoints(t *testing.T) {
	var buf []byte
	decided, all := 0, 0
	for i := fp16.Num(0); i < 0x7C00; i++ {
		hi := (i + 1).Float64()
		if i+1 == 0x7C00 {
			hi = 65536
		}
		mid := (i.Float64() + hi) / 2
		m32 := float32(mid)
		for _, c := range []float64{mid, (mid + float64(math.Nextafter32(m32, 1e9))) / 2, (mid + float64(math.Nextafter32(m32, -1))) / 2} {
			for _, x := range []float64{c, math.Nextafter(c, math.Inf(1)), math.Nextafter(c, 0)} {
				for _, prec := range []int{16, 20} {
					for _, sign := range []float64{1, -1} {
						buf = strconv.AppendFloat(buf[:0], sign*x, 'e', prec, 64)
						if checkHalf(t, buf) {
							decided++
						}
						all++
					}
				}
			}
		}
	}
	t.Logf("decided %d of %d midpoint texts, declined the rest", decided, all)
}

// TestParseHalfCorpus is TestParseHalfMidpoints over 10^6 seeded numbers
// as clients send them: the shortest text of normal deviates at scales
// from 10^-8 to 10^6, and of binary16 values. From 10^-5 up, where 17
// digits keep the exponent within 10^±22, the scanner decides every one.
func TestParseHalfCorpus(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var buf []byte
	decided, declined := 0, 0
	for k := 0; k < 1_000_000; k++ {
		v := r.NormFloat64() * math.Pow10(r.Intn(15)-8)
		if k%4 == 0 {
			v = fp16.FromFloat64(v).Float64()
		}
		if math.IsInf(v, 0) {
			continue // a deviate rounded to ±Inf
		}
		buf = strconv.AppendFloat(buf[:0], v, 'g', -1, 64)
		switch {
		case checkHalf(t, buf):
			decided++
		case math.Abs(v) >= 1e-5:
			declined++
		}
	}
	t.Logf("decided %d of 10^6 numbers", decided)
	if declined > 0 {
		t.Errorf("the scanner declined %d numbers of at least 1e-5", declined)
	}
}

// FuzzParseHalf: for any JSON number, the scanner's binary16 reading is
// fp16.FromFloat64(strconv.ParseFloat)'s, or it declines.
func FuzzParseHalf(f *testing.F) {
	for _, s := range []string{"0", "-0", "1.00048828125", "65519.999", "65520", "1e-22", "1e22", "0.1",
		"1.000000059604644775390625", "-2.9802322387695312e-8", "9999999999999999999e-22", "12345678901234567890",
		"18446.744073709551616", "18446744073709551616", "0." + strings.Repeat("0", 1000) + "1e1002"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		if s := (scanner{b: []byte(text)}); len(text) > 0 && s.ws() == 0 && s.number() != nil && s.i == len(text) {
			checkHalf(t, []byte(text))
		}
	})
}

// TestScanInferBoundsScratch: once the id names a lease, a canonical body
// that does not fit its shape grows no scratch. A warmed scratch scans a
// 1 MB body of too many rows, and one whose first row is too wide, in 0
// allocations, holding no more than TimeSteps × Hidden values, and
// /infer answers each as InferAs answers the whole body.
func TestScanInferBoundsScratch(t *testing.T) {
	svc, err := NewService(resource.PaperCluster(), testDB(Flexible))
	if err != nil {
		t.Fatal(err)
	}
	lease, err := svc.Deploy(kernels.LayerSpec{Kind: kernels.LSTM, Hidden: 64, TimeSteps: 2})
	if err != nil {
		t.Fatal(err)
	}
	dp := NewDataPlane(svc, DefaultInferOptions())
	t.Cleanup(dp.Close)
	in := testInputs(lease.Spec, 1)
	one, err := json.Marshal(inferBody{lease.ID, in[:1]})
	if err != nil {
		t.Fatal(err)
	}
	fits, err := json.Marshal(inferBody{lease.ID, in})
	if err != nil {
		t.Fatal(err)
	}
	// A fresh scratch grows by the rows a body holds, not to the lease.
	var sc inferScratch
	if !scanInfer(one, &sc, dp) || cap(sc.back) != lease.Spec.Hidden {
		t.Errorf("a one-row body grew a fresh scratch to %d values, want %d", cap(sc.back), lease.Spec.Hidden)
	}
	if !scanInfer(fits, &sc, dp) {
		t.Fatal("scanInfer declined a canonical body")
	}
	row := "[" + strings.Repeat("0.25,", lease.Spec.Hidden-1) + "0.5]"
	tall := fmt.Sprintf(`{"id":%d,"inputs":[%s%s]}`, lease.ID, strings.Repeat(row+",", 1<<20/len(row)), row)
	wide := fmt.Sprintf(`{"id":%d,"inputs":[[%s1]]}`, lease.ID, strings.Repeat("-1.5,", 1<<20/5))
	for _, body := range []string{tall, wide} {
		b := []byte(body)
		if n := testing.AllocsPerRun(3, func() {
			if !scanInfer(b, &sc, dp) {
				t.Fatal("scanInfer declined a canonical body")
			}
		}); n != 0 {
			t.Errorf("%.60s…: scanInfer allocates %v times on a warmed scratch, want 0", body, n)
		}
		if size := lease.Spec.TimeSteps * lease.Spec.Hidden; cap(sc.back) > size || cap(sc.rows) > lease.Spec.TimeSteps {
			t.Errorf("%.60s…: scratch holds %d values in %d rows, the lease %d in %d", body, cap(sc.back), cap(sc.rows), size, lease.Spec.TimeSteps)
		}
		var whole inferBody
		if err := json.Unmarshal(b, &whole); err != nil {
			t.Fatal(err)
		}
		_, want := dp.InferAs("", whole.ID, whole.Inputs)
		w := httptest.NewRecorder()
		dp.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/infer", bytes.NewReader(b)))
		if want == nil || w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), want.Error()) {
			t.Errorf("%.60s…: /infer answers %d %s, InferAs %v", body, w.Code, w.Body.String(), want)
		}
	}
}

// discard is a ResponseWriter that keeps nothing.
type discard http.Header

func (d discard) Header() http.Header       { return http.Header(d) }
func (discard) Write(b []byte) (int, error) { return len(b), nil }
func (discard) WriteHeader(int)             {}

// BenchmarkInferCodec is /infer's codec alone at serve_compute's shape
// (LSTM h=256 t=8): decoding a body of json.Marshal'd normal deviates and
// encoding the result an inference of it answers, on a warmed scratch and
// response buffer. ns/number is per input and output number.
func BenchmarkInferCodec(b *testing.B) {
	svc, err := NewService(resource.PaperCluster(), testDB(Flexible))
	if err != nil {
		b.Fatal(err)
	}
	lease, err := svc.Deploy(kernels.LayerSpec{Kind: kernels.LSTM, Hidden: 256, TimeSteps: 8})
	if err != nil {
		b.Fatal(err)
	}
	dp := NewDataPlane(svc, DefaultInferOptions())
	b.Cleanup(dp.Close)
	in := testInputs(lease.Spec, 1)
	body, err := json.Marshal(inferBody{lease.ID, in})
	if err != nil {
		b.Fatal(err)
	}
	res, err := dp.InferAs("", lease.ID, in)
	if err != nil {
		b.Fatal(err)
	}
	var sc inferScratch
	w := discard{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !scanInfer(body, &sc, dp) {
			b.Fatal("scanInfer declined a canonical body")
		}
		writeJSON(w, http.StatusOK, res)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(2*len(in)*len(in[0])), "ns/number")
}
