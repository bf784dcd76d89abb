// mlv-serve runs the framework's system controller as a JSON HTTP service
// (the Fig. 7 integration API): a hypervisor or orchestrator deploys and
// releases AS ISA-based accelerators on the simulated heterogeneous
// cluster, observes virtual-block occupancy, and serves inferences against
// admitted leases through a micro-batching data plane. The cluster control
// plane runs on top: simulated device agents heartbeat the fleet registry,
// a periodic control tick evacuates dead or draining devices and
// re-partitions leases against their live load, and the /cluster endpoints
// expose the fleet to operators (see `mlv cluster`).
//
// Usage:
//
//	mlv-serve -addr :8080 -tenants tenants.json   # authenticated multi-tenant serving
//	mlv-serve -addr :8080 -insecure               # anonymous mode (explicit opt-in)
//
//	curl -X POST localhost:8080/deploy -d '{"kind":"GRU","hidden":512,"timesteps":1}'
//	curl -X POST localhost:8080/infer -d '{"id":1,"inputs":[[0.1, ... 512 floats]]}'
//	curl localhost:8080/status
//	curl localhost:8080/cluster/devices
//	curl -X POST localhost:8080/cluster/drain -d '{"id":2}'
//	curl localhost:8080/debug/vars
//	curl -X POST localhost:8080/release -d '{"id":1}'
//
// With -tenants, every mutating request must carry the X-MLV-* signed
// headers (see internal/tenant and `mlv sign`); the /cluster/* mutations
// additionally require an admin tenant. The unauthenticated curl examples
// above only work under -insecure.
//
// SIGINT/SIGTERM stop admission, drain in-flight batches, and release
// every lease before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"mlvfpga/internal/artifactstore"
	"mlvfpga/internal/cluster"
	"mlvfpga/internal/metrics"
	"mlvfpga/internal/perf"
	"mlvfpga/internal/resource"
	"mlvfpga/internal/rms"
	"mlvfpga/internal/scaleout"
	"mlvfpga/internal/tenant"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	restricted := flag.Bool("restricted", false, "use the same-type-only runtime policy")
	maxBatch := flag.Int("max-batch", 8, "batch slots per machine: how many streams one machine steps together")
	machines := flag.Int("machines", 2, "per-lease machine pool size")
	preempt := flag.Bool("preempt", false, "preemptive scheduling: a full machine checkpoints batch-class streams while latency-class requests wait")
	drainDeadline := flag.Duration("drain-deadline", 10*time.Second, "shutdown drain budget; streams still running at the deadline are abandoned instead of served (0 = drain unbounded)")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this private address (empty = disabled); enables mutex and block profiling")
	tick := flag.Duration("tick", time.Second, "control-plane tick interval (0 disables the loop)")
	cacheDir := flag.String("cache-dir", "", "content-addressed compilation cache directory (empty = in-memory for this process); known designs warm-start deploys")
	tenantsFile := flag.String("tenants", "", "tenant registry JSON (id, HMAC key, class, quotas); enables signed-request auth")
	insecure := flag.Bool("insecure", false, "serve anonymously with no authentication or quotas (explicit opt-in)")
	flag.Parse()

	if *tenantsFile == "" && !*insecure {
		log.Fatal("mlv-serve: refusing to serve unauthenticated: pass -tenants <file> or the explicit -insecure flag")
	}
	if *tenantsFile != "" && *insecure {
		log.Fatal("mlv-serve: -tenants and -insecure are mutually exclusive")
	}

	mode := rms.Flexible
	if *restricted {
		mode = rms.SameTypeOnly
	}
	db := rms.NewDatabase(mode, perf.DefaultParams(), scaleout.DefaultOptions())
	svc, err := rms.NewService(resource.PaperCluster(), db)
	if err != nil {
		log.Fatal(err)
	}
	store, err := artifactstore.Open(*cacheDir, artifactstore.Options{})
	if err != nil {
		log.Fatal(err)
	}
	svc.SetCompiler(rms.NewCompiler(store, rms.CompilerOptions{}))
	opts := rms.DefaultInferOptions()
	opts.MaxBatch = *maxBatch
	opts.Machines = *machines
	opts.Preempt = *preempt
	dp := rms.NewDataPlane(svc, opts)

	// Opt-in profiling on a separate, private listener: the serving mux
	// never exposes pprof, so an operator can bind this to localhost while
	// the API listens publicly. Mutex and block sampling are turned on so
	// contention in the submit path and the shard scheduler is visible.
	if *pprofAddr != "" {
		runtime.SetMutexProfileFraction(10)
		runtime.SetBlockProfileRate(100_000) // one sample per 100µs blocked
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			psrv := &http.Server{
				Addr:              *pprofAddr,
				Handler:           pmux,
				ReadHeaderTimeout: 5 * time.Second,
			}
			log.Printf("mlv-serve: pprof on %s (private listener)", *pprofAddr)
			if err := psrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("mlv-serve: pprof listener: %v", err)
			}
		}()
	}

	var reg *tenant.Registry
	if *tenantsFile != "" {
		reg, err = tenant.LoadFile(*tenantsFile)
		if err != nil {
			log.Fatal(err)
		}
		svc.SetTenants(reg)
		dp.SetTenants(reg)
		// Per-tenant quota headroom under /debug/vars: used vs. remaining
		// (remaining omitted for unlimited dimensions).
		metrics.SetQuotaHeadroom(func() any {
			out := map[string]map[string]int{}
			for _, t := range reg.List() {
				leases, devices, blocks := svc.TenantUsage(t.ID)
				entry := map[string]int{
					"leases_used":  leases,
					"devices_used": devices,
					"blocks_used":  blocks,
				}
				if t.Quotas.MaxLeases > 0 {
					entry["leases_free"] = t.Quotas.MaxLeases - leases
				}
				if t.Quotas.MaxDevices > 0 {
					entry["devices_free"] = t.Quotas.MaxDevices - devices
				}
				if t.Quotas.MaxBlocks > 0 {
					entry["blocks_free"] = t.Quotas.MaxBlocks - blocks
				}
				out[t.ID] = entry
			}
			return out
		})
	}

	cp := cluster.New(cluster.WallClock{}, cluster.DefaultConfig(), svc, dp)

	// Simulated device agents: every registered device heartbeats every
	// cluster.HeartbeatInterval, except devices an operator killed (POST /cluster/kill) —
	// those stay Dead until an explicit /cluster/heartbeat revives them.
	stop := make(chan struct{})
	go func() {
		t := time.NewTicker(cluster.HeartbeatInterval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				for _, d := range cp.Registry().Snapshot() {
					if d.State == cluster.Dead {
						continue
					}
					_ = cp.Heartbeat(d.ID)
				}
			case <-stop:
				return
			}
		}
	}()
	if *tick > 0 {
		go func() {
			t := time.NewTicker(*tick)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					rep := cp.Tick()
					for _, ev := range rep.Events {
						log.Printf("mlv-serve: control: lease %d %s %d->%d %s",
							ev.Lease, ev.Kind, ev.FromDepth, ev.ToDepth, ev.Err)
					}
				case <-stop:
					return
				}
			}
		}()
	}

	handler := cp.Handler(dp.Handler())
	authNote := "INSECURE anonymous mode"
	if reg != nil {
		// The guard wraps the whole mux: rms mutations need any valid
		// tenant signature, /cluster/* mutations an admin tenant; GETs
		// (status, devices, debug/vars, healthz) stay open.
		handler = tenant.NewGuard(reg, tenant.GuardOptions{}).Wrap(handler)
		authNote = fmt.Sprintf("signed-request auth, %d tenants", len(reg.List()))
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}

	cacheNote := "in-memory compilation cache"
	if *cacheDir != "" {
		cacheNote = "compilation cache at " + *cacheDir
	}
	fmt.Printf("mlv-serve: system controller for 3x XCVU37P + 1x XCKU115 (%s policy) on %s, %s, %s\n",
		mode, *addr, cacheNote, authNote)

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		fmt.Printf("mlv-serve: %v, draining\n", sig)
	case err := <-errCh:
		log.Fatal(err)
	}

	close(stop)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// The engine drain runs concurrently with the HTTP shutdown: /infer
	// handlers block on their in-flight inferences, so Shutdown can only
	// return once the data plane has answered them — gracefully within
	// -drain-deadline, or by abandoning still-running streams at the
	// deadline (their callers get a 503 lease-closing answer and can retry
	// against the next instance). Draining after Shutdown instead would
	// make the deadline dead code: Shutdown would wait out the full
	// sequence first.
	drained := make(chan int, 1)
	go func() {
		if *drainDeadline > 0 {
			drained <- dp.CloseWithin(*drainDeadline)
		} else {
			dp.Close()
			drained <- 0
		}
	}()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("mlv-serve: shutdown: %v", err)
	}
	if n := <-drained; n > 0 {
		log.Printf("mlv-serve: drain deadline: abandoned %d in-flight streams", n)
	}
	for _, lease := range svc.Leases() {
		if err := svc.Release(lease.ID); err != nil {
			log.Printf("mlv-serve: releasing lease %d: %v", lease.ID, err)
		}
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("mlv-serve: %v", err)
	}
	fmt.Println("mlv-serve: drained, bye")
}
