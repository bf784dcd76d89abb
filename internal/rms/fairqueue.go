package rms

import (
	"sync"

	"mlvfpga/internal/metrics"
)

// fairQueue is the weighted fair-share request queue feeding one lease's
// slot admission: one FIFO per tenant, drained by deficit round-robin.
// Each visit grants a tenant its weight in fresh deficit and serves
// requests (cost 1 each) until the deficit or the FIFO runs out, so over
// any window a tenant's share of batch slots converges to weight/Σweights
// — a batch-class tenant with a deep backlog cannot push a latency-class
// tenant's requests more than one round back. The zero value is empty.
type fairQueue struct {
	mu sync.Mutex

	// tenants holds every tenant the queue has seen, found by a linear
	// scan: a lease's queue serves one or a few. ring indexes the tenants
	// with queued requests in round-robin order; pos is the DRR cursor
	// (persisted across takes so leftover deficit carries over).
	tenants []tenantFIFO
	ring    []int
	pos     int
	// resuming marks that the last take filled up mid-visit with deficit
	// left at ring[pos]; the next take finishes that visit without
	// re-crediting the quantum.
	resuming bool
	size     int
	// latency counts queued requests with weight > 1 (latency-class
	// tenants) — the automatic-preemption trigger: a machine with no free
	// slots evicts batch-class streams only while latency work waits.
	latency int
}

type tenantFIFO struct {
	id         string
	weight     int
	deficit    int
	head, tail *inferRequest // linked through inferRequest.next
	active     bool
}

// push enqueues a request under its tenant. The tenant's depth gauge moves
// before the request becomes takeable: a machine may take, serve and
// answer it before push returns, and its -1 must never land ahead of this
// +1.
func (q *fairQueue) push(r *inferRequest) {
	if r.tenant != "" {
		metrics.TenantQueueDepth.Add(r.tenant, 1)
	}
	q.mu.Lock()
	i := 0
	for i < len(q.tenants) && q.tenants[i].id != r.tenant {
		i++
	}
	if i == len(q.tenants) {
		q.tenants = append(q.tenants, tenantFIFO{id: r.tenant, weight: 1})
	}
	tf := &q.tenants[i]
	if r.weight > 0 {
		tf.weight = r.weight
	}
	if tf.head == nil {
		tf.head = r
	} else {
		tf.tail.next = r
	}
	tf.tail = r
	if r.weight > 1 {
		q.latency++
	}
	if !tf.active {
		tf.active = true
		q.ring = append(q.ring, i)
	}
	q.size++
	q.mu.Unlock()
}

// take collects up to max requests by deficit round-robin into out[:0]
// and returns it. It never blocks; an empty queue returns it empty.
func (q *fairQueue) take(out []*inferRequest, max int) []*inferRequest {
	out = out[:0]
	q.mu.Lock()
	for q.size > 0 && len(out) < max {
		if q.pos >= len(q.ring) {
			q.pos = 0
		}
		tf := &q.tenants[q.ring[q.pos]]
		if !q.resuming {
			tf.deficit += tf.weight
		}
		q.resuming = false
		for tf.deficit > 0 && tf.head != nil && len(out) < max {
			r := tf.head
			tf.head, r.next = r.next, nil
			tf.deficit--
			q.size--
			if r.weight > 1 {
				q.latency--
			}
			out = append(out, r)
		}
		if tf.head == nil {
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
	q.mu.Unlock()
	for _, r := range out {
		if r.tenant != "" {
			metrics.TenantQueueDepth.Add(r.tenant, -1)
		}
	}
	return out
}

// depth reports how many requests are queued.
func (q *fairQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size
}

// latencyDepth reports how many queued requests carry a latency-class
// weight — the signal automatic preemption acts on.
func (q *fairQueue) latencyDepth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.latency
}
