package cluster

import (
	"encoding/json"
	"errors"
	"net/http"
	"strings"

	"mlvfpga/internal/tenant"
)

// Handler exposes the control plane as a JSON HTTP API, layered over the
// base handler (the rms data-plane mux) so one server serves both:
//
//	GET  /cluster/devices                   -> []DeviceInfo
//	POST /cluster/drain     {"id":2}        -> 204 (add "undrain":true to revert)
//	POST /cluster/heartbeat {"id":2}        -> 204
//	POST /cluster/kill      {"id":2}        -> 204 (immediate Dead, as from failure evidence)
//	POST /cluster/rebalance                 -> TickReport (one control pass, on demand)
//	POST /cluster/defrag                    -> DefragReport (one consolidation pass)
//
// Paths under /cluster/ go to the control plane's mux and all others
// straight to base, so a request takes one route lookup.
//
// The mutating /cluster/* operations condemn hardware and move tenant
// workloads, so servers must put this handler behind a tenant.Guard
// (which reserves /cluster/ for admin tenants) unless running with an
// explicit -insecure flag; the guard rejects non-admin tenants with 403.
func (cp *ControlPlane) Handler(base http.Handler) http.Handler {
	mux := http.NewServeMux()

	writeJSON := func(w http.ResponseWriter, code int, v any) {
		w.Header()["Content-Type"] = jsonContentType
		w.WriteHeader(code)
		_ = json.NewEncoder(w).Encode(v)
	}
	writeErr := func(w http.ResponseWriter, code int, err error) {
		writeJSON(w, code, map[string]string{"error": err.Error()})
	}
	// post refuses anything but a POST (405) and, unless v is nil, reads
	// the body (413 over tenant.MaxBody) and decodes its JSON into v (400);
	// false means the response has been written.
	post := func(w http.ResponseWriter, r *http.Request, v any) bool {
		if r.Method != http.MethodPost {
			writeErr(w, http.StatusMethodNotAllowed, errors.New("POST required"))
			return false
		}
		if v == nil {
			return true
		}
		body, err := tenant.ReadBody(r)
		if errors.Is(err, tenant.ErrBodyTooLarge) {
			writeErr(w, http.StatusRequestEntityTooLarge, err)
			return false
		}
		if err == nil {
			defer tenant.FreeBody(body)
			err = json.Unmarshal(body.Bytes(), v)
		}
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return false
		}
		return true
	}
	// deviceOp decodes {"id":N,"undrain":bool} and applies fn, the shape
	// the drain/heartbeat/kill endpoints share.
	deviceOp := func(fn func(id int, undrain bool) error) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			var req struct {
				ID      int  `json:"id"`
				Undrain bool `json:"undrain"`
			}
			if !post(w, r, &req) {
				return
			}
			if err := fn(req.ID, req.Undrain); err != nil {
				writeErr(w, http.StatusNotFound, err)
				return
			}
			w.WriteHeader(http.StatusNoContent)
		}
	}

	mux.HandleFunc("/cluster/devices", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			writeErr(w, http.StatusMethodNotAllowed, errors.New("GET required"))
			return
		}
		writeJSON(w, http.StatusOK, cp.reg.Snapshot())
	})

	mux.Handle("/cluster/drain", deviceOp(func(id int, undrain bool) error {
		if undrain {
			return cp.Undrain(id)
		}
		return cp.Drain(id)
	}))
	mux.Handle("/cluster/heartbeat", deviceOp(func(id int, _ bool) error { return cp.Heartbeat(id) }))
	mux.Handle("/cluster/kill", deviceOp(func(id int, _ bool) error { return cp.ReportDead(id) }))

	mux.HandleFunc("/cluster/rebalance", func(w http.ResponseWriter, r *http.Request) {
		if post(w, r, nil) {
			writeJSON(w, http.StatusOK, cp.Tick())
		}
	})

	mux.HandleFunc("/cluster/defrag", func(w http.ResponseWriter, r *http.Request) {
		if post(w, r, nil) {
			writeJSON(w, http.StatusOK, cp.Defrag())
		}
	})

	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/cluster/") {
			mux.ServeHTTP(w, r)
			return
		}
		base.ServeHTTP(w, r)
	})
}

// jsonContentType is every JSON response's Content-Type, never written to.
var jsonContentType = []string{"application/json"}
