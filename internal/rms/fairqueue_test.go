package rms

import (
	"testing"
	"time"
)

func fqReq(tenant string, weight int) *inferRequest {
	return &inferRequest{tenant: tenant, weight: weight, enqueued: time.Now(), resp: make(chan inferResponse, 1)}
}

func TestFairQueueFIFOWithinTenant(t *testing.T) {
	q := newFairQueue()
	a1, a2, a3 := fqReq("a", 1), fqReq("a", 1), fqReq("a", 1)
	q.push(a1)
	q.push(a2)
	q.push(a3)
	got := q.take(2)
	if len(got) != 2 || got[0] != a1 || got[1] != a2 {
		t.Fatalf("take(2) broke single-tenant FIFO order: %v", got)
	}
	if got := q.take(8); len(got) != 1 || got[0] != a3 {
		t.Fatalf("second take = %v, want [a3]", got)
	}
	if q.size != 0 {
		t.Fatalf("depth = %d after draining", q.size)
	}
}

func TestFairQueueWeightedShare(t *testing.T) {
	// A latency tenant (weight 8) and a batch tenant (weight 1) both have
	// deep backlogs: one DRR round over a 9-slot take must yield an 8:1
	// split.
	q := newFairQueue()
	for i := 0; i < 20; i++ {
		q.push(fqReq("lat", 8))
		q.push(fqReq("bat", 1))
	}
	got := q.take(9)
	counts := map[string]int{}
	for _, r := range got {
		counts[r.tenant]++
	}
	if counts["lat"] != 8 || counts["bat"] != 1 {
		t.Fatalf("9-slot DRR round split %v, want lat:8 bat:1", counts)
	}
}

func TestFairQueueBatchTenantCannotStarve(t *testing.T) {
	// The batch tenant floods first; a latency request arriving later must
	// appear in the very next take, not behind the whole backlog.
	q := newFairQueue()
	for i := 0; i < 64; i++ {
		q.push(fqReq("bat", 1))
	}
	lat := fqReq("lat", 8)
	q.push(lat)
	got := q.take(4)
	found := false
	for _, r := range got {
		if r == lat {
			found = true
		}
	}
	if !found {
		t.Fatalf("latency request missing from next batch: got %d batch riders", len(got))
	}
}

func TestFairQueueDeficitCarriesAcrossTakes(t *testing.T) {
	// A take that fills mid-tenant must resume the same tenant's leftover
	// deficit on the next take rather than re-crediting from zero.
	q := newFairQueue()
	for i := 0; i < 6; i++ {
		q.push(fqReq("a", 4))
	}
	for i := 0; i < 6; i++ {
		q.push(fqReq("b", 4))
	}
	first := q.take(2) // tenant a: deficit 4, serves 2, 2 left
	second := q.take(4)
	counts := map[string]int{}
	for _, r := range append(first, second...) {
		counts[r.tenant]++
	}
	// Across both takes one full round completes: a gets its 4-quantum, b
	// gets the next 2 slots of its own quantum.
	if counts["a"] != 4 || counts["b"] != 2 {
		t.Fatalf("cross-take split %v, want a:4 b:2", counts)
	}
}

func TestFairQueueIdleTenantBanksNoCredit(t *testing.T) {
	q := newFairQueue()
	q.push(fqReq("a", 8))
	if got := q.take(8); len(got) != 1 {
		t.Fatalf("drain take = %d requests", len(got))
	}
	// a emptied out with 7 unused deficit; re-joining must start fresh,
	// not with banked credit from the idle period.
	q.push(fqReq("a", 1))
	q.push(fqReq("b", 1))
	got := q.take(2)
	counts := map[string]int{}
	for _, r := range got {
		counts[r.tenant]++
	}
	if counts["a"] != 1 || counts["b"] != 1 {
		t.Fatalf("post-idle split %v, want a:1 b:1", counts)
	}
}

// TestFairQueueLatencyFloodQuantumBound is the inverse starvation case
// under continuous admission: a latency-class flood (weight 8) is
// draining the queue one slot at a time — the slot-granular take pattern
// of continuous batching — and a batch-class request (weight 1) must
// still be served within one DRR cycle, i.e. within Σweights = 9 pops.
func TestFairQueueLatencyFloodQuantumBound(t *testing.T) {
	q := newFairQueue()
	for i := 0; i < 64; i++ {
		q.push(fqReq("lat", 8))
	}
	bat := fqReq("bat", 1)
	q.push(bat)
	const bound = 8 + 1 // one full DRR cycle over both quanta
	for pop := 1; pop <= bound; pop++ {
		got := q.take(1)
		if len(got) != 1 {
			t.Fatalf("pop %d returned %d requests", pop, len(got))
		}
		if got[0] == bat {
			return
		}
	}
	t.Fatalf("batch-class request not served within the DRR quantum bound (%d pops)", bound)
}
