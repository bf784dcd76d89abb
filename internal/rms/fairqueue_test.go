package rms

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

func fqReq(tenant string, weight int) *inferRequest {
	return newRequest(nil, tenant, weight)
}

func TestFairQueueFIFOWithinTenant(t *testing.T) {
	q := new(fairQueue)
	a1, a2, a3 := fqReq("a", 1), fqReq("a", 1), fqReq("a", 1)
	q.push(a1)
	q.push(a2)
	q.push(a3)
	got := q.take(nil, 2)
	if len(got) != 2 || got[0] != a1 || got[1] != a2 {
		t.Fatalf("take(2) broke single-tenant FIFO order: %v", got)
	}
	if got := q.take(nil, 8); len(got) != 1 || got[0] != a3 {
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
	q := new(fairQueue)
	for i := 0; i < 20; i++ {
		q.push(fqReq("lat", 8))
		q.push(fqReq("bat", 1))
	}
	got := q.take(nil, 9)
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
	q := new(fairQueue)
	for i := 0; i < 64; i++ {
		q.push(fqReq("bat", 1))
	}
	lat := fqReq("lat", 8)
	q.push(lat)
	got := q.take(nil, 4)
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
	q := new(fairQueue)
	for i := 0; i < 6; i++ {
		q.push(fqReq("a", 4))
	}
	for i := 0; i < 6; i++ {
		q.push(fqReq("b", 4))
	}
	first := q.take(nil, 2) // tenant a: deficit 4, serves 2, 2 left
	second := q.take(nil, 4)
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
	q := new(fairQueue)
	q.push(fqReq("a", 8))
	if got := q.take(nil, 8); len(got) != 1 {
		t.Fatalf("drain take = %d requests", len(got))
	}
	// a emptied out with 7 unused deficit; re-joining must start fresh,
	// not with banked credit from the idle period.
	q.push(fqReq("a", 1))
	q.push(fqReq("b", 1))
	got := q.take(nil, 2)
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
	q := new(fairQueue)
	for i := 0; i < 64; i++ {
		q.push(fqReq("lat", 8))
	}
	bat := fqReq("bat", 1)
	q.push(bat)
	const bound = 8 + 1 // one full DRR cycle over both quanta
	for pop := 1; pop <= bound; pop++ {
		got := q.take(nil, 1)
		if len(got) != 1 {
			t.Fatalf("pop %d returned %d requests", pop, len(got))
		}
		if got[0] == bat {
			return
		}
	}
	t.Fatalf("batch-class request not served within the DRR quantum bound (%d pops)", bound)
}

// refQueue is the fair queue as it was before requests were linked through
// themselves: per-tenant slices, and a take that returns a fresh slice.
// push and take are kept verbatim, less the lock, the depth gauge and the
// wake-up, as the oracle for the intrusive queue's order.
type refQueue struct {
	byID     map[string]*refFIFO
	ring     []*refFIFO
	pos      int
	resuming bool
	size     int
	latency  int
}

type refFIFO struct {
	id      string
	weight  int
	deficit int
	reqs    []*inferRequest
	active  bool
}

func (q *refQueue) push(r *inferRequest) {
	tf := q.byID[r.tenant]
	if tf == nil {
		tf = &refFIFO{id: r.tenant, weight: 1}
		q.byID[r.tenant] = tf
	}
	if r.weight > 0 {
		tf.weight = r.weight
	}
	tf.reqs = append(tf.reqs, r)
	if r.weight > 1 {
		q.latency++
	}
	if !tf.active {
		tf.active = true
		q.ring = append(q.ring, tf)
	}
	q.size++
}

func (q *refQueue) take(max int) []*inferRequest {
	var out []*inferRequest
	for q.size > 0 && len(out) < max {
		if q.pos >= len(q.ring) {
			q.pos = 0
		}
		tf := q.ring[q.pos]
		if !q.resuming {
			tf.deficit += tf.weight
		}
		q.resuming = false
		for tf.deficit > 0 && len(tf.reqs) > 0 && len(out) < max {
			r := tf.reqs[0]
			tf.reqs = tf.reqs[1:]
			tf.deficit--
			q.size--
			if r.weight > 1 {
				q.latency--
			}
			out = append(out, r)
		}
		if len(tf.reqs) == 0 {
			// Emptied: leave the ring and forfeit leftover deficit, so an
			// idle tenant cannot bank credit against the others.
			tf.deficit = 0
			tf.active = false
			q.ring = append(q.ring[:q.pos], q.ring[q.pos+1:]...)
			continue // pos now indexes the next tenant
		}
		if len(out) >= max {
			if tf.deficit > 0 {
				// Mid-visit cutoff: finish this tenant's quantum on the
				// next take instead of re-crediting it.
				q.resuming = true
			} else {
				q.pos++ // visit complete, next take starts the next tenant
			}
			break
		}
		q.pos++
	}
	return out
}

// TestFairQueueMatchesReferenceDRR drives the intrusive queue and the
// slice-based oracle through the same seeded sequences — one to five
// tenants weighted 1, 2 or 8, bursts of pushes, takes of 1 to 9, drains to
// empty after which every tenant re-joins from idle — and requires the
// same requests in the same order from every take, and the same depth,
// latency-class depth and carried-over visit after every step.
func TestFairQueueMatchesReferenceDRR(t *testing.T) {
	weights := []int{1, 2, 8}
	tenants := func(rs []*inferRequest) []string {
		ids := make([]string, len(rs))
		for i, r := range rs {
			ids[i] = r.tenant
		}
		return ids
	}
	for seed := int64(1); seed <= 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ids, ws := make([]string, 1+rng.Intn(5)), []int{}
		for i := range ids {
			ids[i] = fmt.Sprintf("drr%d", i)
			ws = append(ws, weights[rng.Intn(len(weights))])
		}
		q, ref := new(fairQueue), &refQueue{byID: map[string]*refFIFO{}}
		var buf []*inferRequest
		take := func(step, max int) {
			buf = q.take(buf, max)
			if want := ref.take(max); !slices.Equal(buf, want) {
				t.Fatalf("seed %d step %d: take(%d) = %v, reference %v", seed, step, max, tenants(buf), tenants(want))
			}
		}
		for step := 0; step < 300; step++ {
			switch op := rng.Intn(10); {
			case op < 5:
				for n := 1 + rng.Intn(4); n > 0; n-- {
					i := rng.Intn(len(ids))
					r := fqReq(ids[i], ws[i])
					q.push(r)
					ref.push(r)
				}
			case op < 9:
				take(step, 1+rng.Intn(9))
			default:
				for ref.size > 0 {
					take(step, 1+rng.Intn(9))
				}
			}
			if q.size != ref.size || q.latency != ref.latency || q.resuming != ref.resuming {
				t.Fatalf("seed %d step %d: size %d latency %d resuming %v, reference %d %d %v",
					seed, step, q.size, q.latency, q.resuming, ref.size, ref.latency, ref.resuming)
			}
		}
		for ref.size > 0 {
			take(-1, 9)
		}
	}
}

// TestFairQueueAllocatesNothing: once the ring and the caller's slice have
// grown, pushing requests and taking them back allocates nothing.
func TestFairQueueAllocatesNothing(t *testing.T) {
	q := new(fairQueue)
	reqs := []*inferRequest{fqReq("a", 1), fqReq("b", 8), fqReq("a", 1), fqReq("", 0), fqReq("c", 2)}
	buf := make([]*inferRequest, 0, len(reqs))
	cycle := func() {
		for _, r := range reqs {
			q.push(r)
		}
		buf = q.take(buf, len(reqs))
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("a warmed push-then-take cycle allocates %v times, want 0", n)
	}
}
