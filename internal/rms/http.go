package rms

import (
	"bytes"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net/http"
	"sync"

	"mlvfpga/internal/kernels"
	"mlvfpga/internal/metrics"
	"mlvfpga/internal/tenant"
)

// retryAfter is the backoff hint stamped on 429/503 responses.
const retryAfter = "1"

// jsonContentType is every JSON response's Content-Type, never written to.
var jsonContentType = []string{"application/json"}

// responseBuf is a pooled response body and the encoder that writes into
// it. A buffer grows to the largest response served, which for /infer is
// one live layer's outputs.
type responseBuf struct {
	bytes.Buffer
	enc *json.Encoder
}

var responsePool = sync.Pool{New: func() any {
	rb := new(responseBuf)
	rb.enc = json.NewEncoder(&rb.Buffer)
	return rb
}}

// writeJSON answers code with v as encoding/json encodes it, in one Write;
// /infer's *InferResult goes through appendInferResult, not reflection.
// v is encoded before anything is written, so a value encoding/json
// refuses (NaN, ±Inf) is a 500 with its reason, not a 200 with no body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	rb := responsePool.Get().(*responseBuf)
	defer responsePool.Put(rb)
	rb.Reset()
	res, ok := v.(*InferResult)
	var b []byte
	if ok {
		b, ok = appendInferResult(rb.AvailableBuffer(), res)
	}
	if ok {
		_, _ = rb.Write(b) // b is rb's spare room unless it outgrew it
	} else if err := rb.enc.Encode(v); err != nil {
		rb.Reset()
		code = http.StatusInternalServerError
		_ = rb.enc.Encode(map[string]string{"error": "rms: encoding the response: " + err.Error()})
	}
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	_, _ = w.Write(rb.Bytes())
}

// Handler exposes the service and its data plane as a JSON HTTP API (the
// integration surface of Fig. 7's "APIs for communicating with the
// high-level system"):
//
//	POST /deploy   {"kind":"LSTM","hidden":512,"timesteps":25} -> Lease  (kind: LSTM, GRU, attention)
//	POST /release  {"id":3}                                    -> 204
//	GET  /status                                               -> ClusterStatus
//	GET  /lease/{id}                                           -> Lease
//	POST /infer    {"id":3,"inputs":[[...h floats...], ...]}   -> InferResult
//	POST /preempt  {"id":3,"slots":2}                          -> {"requested":N}
//	GET  /healthz                                              -> 200 "ok"
//
// /release drains the lease's engine before freeing its blocks; /preempt
// requests that up to slots resident streams of the lease be checkpointed
// back into its fair queue, which busy machines do at their next round.
//
// Behind a tenant.Guard the authenticated tenant (tenant.FromRequest)
// attributes deploys, gates releases (owner or admin only) and drives
// quota and fair-share decisions. Without a guard (the -insecure server)
// requests are anonymous.
//
// Error responses are uniform JSON {"error": "..."}: 405 on a wrong
// method, 400 on malformed JSON (trailing bytes included), 413 on a body
// over tenant.MaxBody, 404 for unknown leases, 429 +
// Retry-After when the caller's quota or in-flight cap is spent, 503 +
// Retry-After when the cluster is out of capacity (also counted in
// mlv_capacity_rejections), 500 for a response encoding/json refuses.
func (dp *DataPlane) Handler() http.Handler {
	s := dp.svc
	mux := http.NewServeMux()

	writeErr := func(w http.ResponseWriter, code int, err error) {
		writeJSON(w, code, map[string]string{"error": err.Error()})
	}
	// shed answers a capacity (503) or quota (429) rejection with a
	// Retry-After hint; 503s count in mlv_capacity_rejections so
	// load-shedding is observable.
	shed := func(w http.ResponseWriter, code int, err error) {
		w.Header().Set("Retry-After", retryAfter)
		if code == http.StatusServiceUnavailable {
			metrics.CapacityRejections.Add(1)
		}
		writeErr(w, code, err)
	}
	// fail answers a service error with the status it has on every
	// endpoint; other is the endpoint's status for anything else.
	fail := func(w http.ResponseWriter, err error, other int) {
		switch {
		case errors.Is(err, ErrUnknownLease):
			writeErr(w, http.StatusNotFound, err)
		case errors.Is(err, ErrQuotaExceeded), errors.Is(err, ErrTenantBusy):
			shed(w, http.StatusTooManyRequests, err)
		case errors.Is(err, ErrNoCapacity), errors.Is(err, ErrBusy), errors.Is(err, ErrLeaseClosing):
			shed(w, http.StatusServiceUnavailable, err)
		case errors.Is(err, ErrUndeployable), errors.Is(err, ErrNoSuchDepth):
			writeErr(w, http.StatusUnprocessableEntity, err)
		case errors.Is(err, tenant.ErrBodyTooLarge):
			writeErr(w, http.StatusRequestEntityTooLarge, err)
		default:
			writeErr(w, other, err)
		}
	}
	// caller resolves the authenticated tenant id ("" when no guard is
	// installed, i.e. anonymous -insecure mode).
	caller := func(r *http.Request) (string, bool) {
		t, _ := tenant.FromRequest(r)
		return t.ID, t.Admin
	}
	// post refuses anything but a POST (405), reads its body into a pooled
	// buffer (413 over the cap, 400 unreadable) and decodes it into v
	// (400); false means the response has been written.
	post := func(w http.ResponseWriter, r *http.Request, v any) bool {
		if r.Method != http.MethodPost {
			writeErr(w, http.StatusMethodNotAllowed, errors.New("POST required"))
			return false
		}
		body, err := tenant.ReadBody(r)
		if err != nil {
			fail(w, err, http.StatusBadRequest)
			return false
		}
		defer tenant.FreeBody(body)
		// An /infer body in the canonical shape skips encoding/json; any
		// other is decoded by it into a fresh body.
		if sc, ok := v.(*inferScratch); ok {
			if scanInfer(body.Bytes(), sc, dp) {
				return true
			}
			v = &sc.body
		}
		if err := json.Unmarshal(body.Bytes(), v); err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("malformed JSON body: %w", err))
			return false
		}
		return true
	}
	// owns gates /release and /preempt: an authenticated tenant may only
	// act on its own leases, admins on any. Anonymous mode (no tenant)
	// keeps the historical allow-all behaviour. false means the 403 has
	// been written and counted.
	owns := func(w http.ResponseWriter, r *http.Request, leaseID int) bool {
		who, admin := caller(r)
		if who == "" || admin {
			return true
		}
		if lease, ok := s.Lease(leaseID); ok && lease.Tenant != who {
			metrics.TenantRejections.Add(who, 1)
			writeErr(w, http.StatusForbidden,
				fmt.Errorf("lease %d is not owned by tenant %s", leaseID, who))
			return false
		}
		return true
	}

	mux.HandleFunc("/deploy", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Kind      string `json:"kind"`
			Hidden    int    `json:"hidden"`
			TimeSteps int    `json:"timesteps"`
			Depth     int    `json:"depth"`
		}
		if !post(w, r, &req) {
			return
		}
		kind, ok := kernels.ParseKind(req.Kind)
		if !ok {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("unknown cell kind %q", req.Kind))
			return
		}
		if req.Hidden <= 0 || req.TimeSteps <= 0 {
			writeErr(w, http.StatusBadRequest, errors.New("hidden and timesteps must be positive"))
			return
		}
		who, _ := caller(r)
		lease, err := s.DeployWith(
			kernels.LayerSpec{Kind: kind, Hidden: req.Hidden, TimeSteps: req.TimeSteps},
			PlaceOptions{Depth: req.Depth, Tenant: who},
		)
		if err != nil {
			fail(w, err, http.StatusInternalServerError)
			return
		}
		writeJSON(w, http.StatusOK, lease)
	})

	mux.HandleFunc("/release", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			ID int `json:"id"`
		}
		if !post(w, r, &req) || !owns(w, r, req.ID) {
			return
		}
		if err := s.Release(req.ID); err != nil {
			fail(w, err, http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})

	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			writeErr(w, http.StatusMethodNotAllowed, errors.New("GET required"))
			return
		}
		writeJSON(w, http.StatusOK, s.Status())
	})

	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ok\n"))
	})

	// Process-wide counters (leases, infers, batches, migrations,
	// heartbeat misses, per-tenant maps — see internal/metrics) for
	// operators and the cluster control plane.
	mux.Handle("/debug/vars", expvar.Handler())

	// /infer borrows its decoded inputs and the result retire fills from a
	// pooled scratch (see freeScratch), and its response buffer from
	// writeJSON's pool, so a warmed request allocates nothing of its own.
	mux.HandleFunc("/infer", func(w http.ResponseWriter, r *http.Request) {
		sc := scratchPool.Get().(*inferScratch)
		defer dp.freeScratch(sc)
		if !post(w, r, sc) {
			return
		}
		who, _ := caller(r)
		if _, err := dp.inferInto(who, sc.body.ID, sc.body.Inputs, sc); err != nil {
			fail(w, err, http.StatusBadRequest)
			return
		}
		writeJSON(w, http.StatusOK, &sc.res)
	})

	mux.HandleFunc("/preempt", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			ID    int `json:"id"`
			Slots int `json:"slots"`
		}
		if !post(w, r, &req) || !owns(w, r, req.ID) {
			return
		}
		requested, err := dp.Preempt(req.ID, req.Slots)
		if err != nil {
			fail(w, err, http.StatusInternalServerError)
			return
		}
		writeJSON(w, http.StatusOK, map[string]int{"requested": requested})
	})

	mux.HandleFunc("/lease/", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			writeErr(w, http.StatusMethodNotAllowed, errors.New("GET required"))
			return
		}
		var id int
		if _, err := fmt.Sscanf(r.URL.Path, "/lease/%d", &id); err != nil {
			writeErr(w, http.StatusBadRequest, errors.New("bad lease id"))
			return
		}
		lease, ok := s.Lease(id)
		if !ok {
			writeErr(w, http.StatusNotFound, fmt.Errorf("%w: %d", ErrUnknownLease, id))
			return
		}
		writeJSON(w, http.StatusOK, lease)
	})

	return mux
}
