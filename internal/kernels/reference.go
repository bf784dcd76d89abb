package kernels

import (
	"fmt"
	"math"
)

// Reference executes the cell in float64, the golden model against which
// the accelerator simulator's BFP/float16 numerics are validated.
type Reference struct {
	w *Weights
	h []float64
	c []float64 // LSTM cell state
	s []float64 // attention running key-weighted value sum
	z []float64 // attention running normalizer
}

// NewReference builds a reference evaluator with zero initial state.
func NewReference(w *Weights) *Reference {
	return &Reference{
		w: w,
		h: make([]float64, w.Hidden),
		c: make([]float64, w.Hidden),
		s: make([]float64, w.Hidden),
		z: make([]float64, w.Hidden),
	}
}

// Step consumes one input vector and returns the new hidden state.
func (r *Reference) Step(x []float64) ([]float64, error) {
	if len(x) != r.w.Hidden {
		return nil, fmt.Errorf("kernels: reference input length %d, want %d", len(x), r.w.Hidden)
	}
	c, ok := r.w.Kind.cell()
	if !ok {
		return nil, fmt.Errorf("kernels: unknown cell %v", r.w.Kind)
	}
	return c.ref(r, x), nil
}

func (r *Reference) stepLSTM(x []float64) []float64 {
	h := r.w.Hidden
	gate := func(wName, uName, bName string, act func(float64) float64) []float64 {
		out := make([]float64, h)
		w, u, b := r.w.M[wName], r.w.M[uName], r.w.B[bName]
		for i := 0; i < h; i++ {
			sum := b[i]
			for j := 0; j < h; j++ {
				sum += w[i*h+j]*x[j] + u[i*h+j]*r.h[j]
			}
			out[i] = act(sum)
		}
		return out
	}
	i := gate("Wi", "Ui", "bi", sigmoid)
	f := gate("Wf", "Uf", "bf", sigmoid)
	o := gate("Wo", "Uo", "bo", sigmoid)
	g := gate("Wc", "Uc", "bc", math.Tanh)
	newC := make([]float64, h)
	newH := make([]float64, h)
	for k := 0; k < h; k++ {
		newC[k] = f[k]*r.c[k] + i[k]*g[k]
		newH[k] = o[k] * math.Tanh(newC[k])
	}
	r.c, r.h = newC, newH
	return append([]float64{}, newH...)
}

func (r *Reference) stepGRU(x []float64) []float64 {
	h := r.w.Hidden
	mul := func(m []float64, v []float64) []float64 {
		out := make([]float64, h)
		for i := 0; i < h; i++ {
			sum := 0.0
			for j := 0; j < h; j++ {
				sum += m[i*h+j] * v[j]
			}
			out[i] = sum
		}
		return out
	}
	wzx, uzh := mul(r.w.M["Wz"], x), mul(r.w.M["Uz"], r.h)
	wrx, urh := mul(r.w.M["Wr"], x), mul(r.w.M["Ur"], r.h)
	wnx, unh := mul(r.w.M["Wn"], x), mul(r.w.M["Un"], r.h)
	newH := make([]float64, h)
	for k := 0; k < h; k++ {
		z := sigmoid(wzx[k] + uzh[k] + r.w.B["bz"][k])
		rr := sigmoid(wrx[k] + urh[k] + r.w.B["br"][k])
		n := math.Tanh(rr*unh[k] + wnx[k] + r.w.B["bn"][k])
		newH[k] = (1-z)*n + z*r.h[k]
	}
	r.h = newH
	return append([]float64{}, newH...)
}

// stepAttention mirrors attnStep's recurrence exactly: running
// accumulators (S, z) instead of a softmax over the materialized history,
// so a float64 evaluation is a step-for-step twin of the kernel.
func (r *Reference) stepAttention(x []float64) []float64 {
	h := r.w.Hidden
	proj := func(wName, bName string) []float64 {
		out := make([]float64, h)
		w, b := r.w.M[wName], r.w.B[bName]
		for i := 0; i < h; i++ {
			sum := b[i]
			for j := 0; j < h; j++ {
				sum += w[i*h+j] * x[j]
			}
			out[i] = sum
		}
		return out
	}
	q := proj("Wq", "bq")
	k := proj("Wk", "bk")
	v := proj("Wv", "bv")
	y := make([]float64, h)
	for i := 0; i < h; i++ {
		e := math.Exp(k[i])
		r.s[i] += e * v[i]
		r.z[i] += e
		y[i] = sigmoid(q[i]) * (r.s[i] / r.z[i])
	}
	newH := make([]float64, h)
	wo, bo := r.w.M["Wo"], r.w.B["bo"]
	for i := 0; i < h; i++ {
		sum := bo[i]
		for j := 0; j < h; j++ {
			sum += wo[i*h+j] * y[j]
		}
		newH[i] = sum
	}
	r.h = newH
	return append([]float64{}, newH...)
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }
