// mlv-cluster is the operator CLI for a running mlv-serve fleet: it talks
// to the /cluster HTTP surface to inspect device health, drain or revive
// devices, inject failures, and force a control-plane pass.
//
// Usage:
//
//	mlv-cluster [-addr host:port] [-tenant id -key secret] devices
//	mlv-cluster [-addr host:port] [-tenant id -key secret] drain <device-id>
//	mlv-cluster [-addr host:port] [-tenant id -key secret] undrain <device-id>
//	mlv-cluster [-addr host:port] [-tenant id -key secret] kill <device-id>
//	mlv-cluster [-addr host:port] [-tenant id -key secret] heartbeat <device-id>
//	mlv-cluster [-addr host:port] [-tenant id -key secret] rebalance
//	mlv-cluster [-addr host:port] [-tenant id -key secret] defrag
//	mlv-cluster [-addr host:port] [-tenant id -key secret] preempt <lease-id> [slots]
//	mlv-cluster [-addr host:port] status
//
// Against a server started with -tenants, the mutating subcommands need
// -tenant/-key credentials of an admin tenant (the /cluster/* surface is
// admin-only); reads work without credentials.
package main

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"time"

	"mlvfpga/internal/cluster"
	"mlvfpga/internal/rms"
	"mlvfpga/internal/tenant"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: mlv-cluster [-addr host:port] [-tenant id -key secret] <devices|drain|undrain|kill|heartbeat|rebalance|defrag|preempt|status> [args]")
	os.Exit(2)
}

func main() {
	addr := flag.String("addr", "localhost:8080", "mlv-serve address")
	tenantID := flag.String("tenant", "", "tenant id for signed requests (admin required for mutations)")
	tenantKey := flag.String("key", "", "tenant HMAC key for signed requests")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
	}
	if (*tenantID == "") != (*tenantKey == "") {
		fatalf("-tenant and -key must be given together")
	}
	base := "http://" + *addr
	client := &http.Client{Timeout: 10 * time.Second}

	deviceArg := func() int {
		if flag.NArg() != 2 {
			usage()
		}
		id, err := strconv.Atoi(flag.Arg(1))
		if err != nil {
			fatalf("bad device id %q", flag.Arg(1))
		}
		return id
	}
	post := func(path string, body any) []byte {
		b, err := json.Marshal(body)
		if err != nil {
			fatalf("%v", err)
		}
		req, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(b))
		if err != nil {
			fatalf("%v", err)
		}
		req.Header.Set("Content-Type", "application/json")
		if *tenantID != "" {
			nonce := make([]byte, 16)
			if _, err := rand.Read(nonce); err != nil {
				fatalf("%v", err)
			}
			tenant.SignRequest(req, *tenantID, []byte(*tenantKey), b, time.Now(), hex.EncodeToString(nonce))
		}
		resp, err := client.Do(req)
		if err != nil {
			fatalf("%v", err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		if resp.StatusCode >= 300 {
			fatalf("%s: %s %s", path, resp.Status, bytes.TrimSpace(out))
		}
		return out
	}
	get := func(path string, v any) {
		resp, err := client.Get(base + path)
		if err != nil {
			fatalf("%v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode >= 300 {
			out, _ := io.ReadAll(resp.Body)
			fatalf("%s: %s %s", path, resp.Status, bytes.TrimSpace(out))
		}
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			fatalf("decoding %s: %v", path, err)
		}
	}

	switch flag.Arg(0) {
	case "devices":
		var devs []cluster.DeviceInfo
		get("/cluster/devices", &devs)
		fmt.Printf("%-4s %-10s %-7s %-9s %s\n", "ID", "TYPE", "BLOCKS", "STATE", "LAST BEAT")
		for _, d := range devs {
			fmt.Printf("%-4d %-10s %-7d %-9s %s ago\n", d.ID, d.Type, d.Blocks, d.State, d.SinceBeat.Round(time.Millisecond))
		}
	case "drain":
		post("/cluster/drain", map[string]any{"id": deviceArg()})
		fmt.Println("ok")
	case "undrain":
		post("/cluster/drain", map[string]any{"id": deviceArg(), "undrain": true})
		fmt.Println("ok")
	case "kill":
		post("/cluster/kill", map[string]any{"id": deviceArg()})
		fmt.Println("ok")
	case "heartbeat":
		post("/cluster/heartbeat", map[string]any{"id": deviceArg()})
		fmt.Println("ok")
	case "rebalance":
		out := post("/cluster/rebalance", struct{}{})
		var rep cluster.TickReport
		if err := json.Unmarshal(out, &rep); err != nil {
			fatalf("decoding report: %v", err)
		}
		fmt.Printf("tick %d: %d transitions, %d actions, %d deferred\n",
			rep.Tick, len(rep.Transitions), len(rep.Events), rep.Deferred)
		for _, tr := range rep.Transitions {
			fmt.Printf("  device %d: %s -> %s\n", tr.Device, tr.From, tr.To)
		}
		for _, ev := range rep.Events {
			line := fmt.Sprintf("  lease %d: %s %d -> %d", ev.Lease, ev.Kind, ev.FromDepth, ev.ToDepth)
			if ev.Err != "" {
				line += " FAILED: " + ev.Err
			}
			fmt.Println(line)
		}
	case "defrag":
		out := post("/cluster/defrag", struct{}{})
		var rep cluster.DefragReport
		if err := json.Unmarshal(out, &rep); err != nil {
			fatalf("decoding report: %v", err)
		}
		fmt.Printf("defrag %d: stranded blocks %d -> %d, empty devices %d -> %d, %d moves, %d skipped\n",
			rep.Run, rep.ScoreBefore, rep.ScoreAfter, rep.EmptyBefore, rep.EmptyAfter, len(rep.Moves), rep.Skipped)
		for _, ev := range rep.Moves {
			line := fmt.Sprintf("  lease %d: %s at depth %d", ev.Lease, ev.Kind, ev.ToDepth)
			if ev.Err != "" {
				line += " FAILED: " + ev.Err
			}
			fmt.Println(line)
		}
	case "preempt":
		if flag.NArg() < 2 || flag.NArg() > 3 {
			usage()
		}
		leaseID, err := strconv.Atoi(flag.Arg(1))
		if err != nil {
			fatalf("bad lease id %q", flag.Arg(1))
		}
		slots := 0 // server default: the lease's full batch width
		if flag.NArg() == 3 {
			if slots, err = strconv.Atoi(flag.Arg(2)); err != nil {
				fatalf("bad slot count %q", flag.Arg(2))
			}
		}
		out := post("/preempt", map[string]any{"id": leaseID, "slots": slots})
		var rep struct {
			Requested int `json:"requested"`
		}
		if err := json.Unmarshal(out, &rep); err != nil {
			fatalf("decoding response: %v", err)
		}
		fmt.Printf("requested %d evictions from lease %d; busy machines act on them at their next round (watch mlv_preempt_evictions)\n", rep.Requested, leaseID)
	case "status":
		var st rms.ClusterStatus
		get("/status", &st)
		var devs []cluster.DeviceInfo
		get("/cluster/devices", &devs)
		states := map[int]cluster.State{}
		for _, d := range devs {
			states[d.ID] = d.State
		}
		fmt.Printf("utilization %.1f%%, %d active leases\n", st.Utilization*100, st.ActiveLeases)
		for _, f := range st.FPGAs {
			fmt.Printf("  fpga %d (%s): %d/%d blocks free, %s\n",
				f.ID, f.Device, f.FreeBlocks, f.TotalBlocks, states[f.ID])
		}
	default:
		usage()
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mlv-cluster: "+format+"\n", args...)
	os.Exit(1)
}
