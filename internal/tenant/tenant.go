// Package tenant gives the serving stack an identity and QoS model: who
// is calling, what they may hold, and how their traffic shares the
// hardware. A Registry maps tenant ids to HMAC keys, priority classes,
// fair-share weights and resource quotas; the Guard (auth.go)
// authenticates signed HTTP requests against it; the rms admission
// service and data plane enforce the quotas and weights it hands out.
//
// The model follows the multi-tenant cloud-FPGA literature ("Architecture
// Support for FPGA Multi-tenancy in the Cloud", the multi-tenant security
// survey): tenants are mutually untrusted, the shared fabric is
// partitioned by quota, and a batch-class tenant must not be able to
// starve a latency-class tenant's tail.
package tenant

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
)

// Class is a tenant's QoS class: it sets the default fair-share weight of
// the tenant's requests inside every lease's micro-batch assembly.
type Class int

const (
	// Latency tenants are interactive: their requests carry a high
	// fair-share weight so a saturating batch tenant cannot push their
	// p99 out.
	Latency Class = iota
	// Batch tenants are throughput-oriented: their requests fill whatever
	// micro-batch slots the latency traffic leaves free.
	Batch
)

// Class fair-share default weights (DRR quanta per round).
const (
	latencyWeight = 8
	batchWeight   = 1
)

func (c Class) String() string {
	if c == Batch {
		return "batch"
	}
	return "latency"
}

// MarshalJSON renders the class as its name.
func (c Class) MarshalJSON() ([]byte, error) { return json.Marshal(c.String()) }

// UnmarshalJSON accepts "latency" or "batch".
func (c *Class) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	switch s {
	case "latency":
		*c = Latency
	case "batch":
		*c = Batch
	default:
		return fmt.Errorf("tenant: unknown class %q (want \"latency\" or \"batch\")", s)
	}
	return nil
}

// Quotas bounds a tenant's resource grants. Zero means unlimited.
type Quotas struct {
	// MaxLeases caps concurrently admitted deployments.
	MaxLeases int `json:"max_leases,omitempty"`
	// MaxDevices caps the physical devices the tenant's placements touch,
	// summed over its leases.
	MaxDevices int `json:"max_devices,omitempty"`
	// MaxBlocks caps the virtual blocks the tenant holds, summed over its
	// leases.
	MaxBlocks int `json:"max_blocks,omitempty"`
	// MaxInFlight caps the tenant's admitted-and-unanswered inference
	// requests across all leases; a breach is answered 429 + Retry-After.
	MaxInFlight int `json:"max_in_flight,omitempty"`
}

// Tenant is one registered identity.
type Tenant struct {
	// ID names the tenant (the X-MLV-Tenant header value).
	ID string `json:"id"`
	// Key is the shared HMAC-SHA256 secret for request signing.
	Key string `json:"key"`
	// Class is the QoS class (default Latency).
	Class Class `json:"class"`
	// Admin grants the /cluster/* mutating operations (kill, drain,
	// rebalance, heartbeat).
	Admin bool `json:"admin,omitempty"`
	// Weight overrides the class's default fair-share weight (0 = class
	// default: 8 for latency, 1 for batch).
	Weight int `json:"weight,omitempty"`
	// Quotas bounds the tenant's grants (zero fields = unlimited).
	Quotas Quotas `json:"quotas"`
}

// EffectiveWeight is the DRR quantum the data plane uses for the tenant.
func (t Tenant) EffectiveWeight() int {
	if t.Weight > 0 {
		return t.Weight
	}
	if t.Class == Batch {
		return batchWeight
	}
	return latencyWeight
}

// Registry is the tenant table, safe for concurrent use.
type Registry struct {
	mu   sync.RWMutex
	byID map[string]*Tenant
}

// NewRegistry builds a registry over the given tenants.
func NewRegistry(tenants ...Tenant) (*Registry, error) {
	r := &Registry{byID: map[string]*Tenant{}}
	for _, t := range tenants {
		if err := r.Add(t); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Add registers a tenant. Ids must be unique and keys non-empty.
func (r *Registry) Add(t Tenant) error {
	if t.ID == "" {
		return fmt.Errorf("tenant: empty id")
	}
	if t.Key == "" {
		return fmt.Errorf("tenant: %s has an empty key", t.ID)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byID[t.ID]; dup {
		return fmt.Errorf("tenant: duplicate id %q", t.ID)
	}
	r.byID[t.ID] = &t
	return nil
}

// Lookup returns the tenant by id.
func (r *Registry) Lookup(id string) (Tenant, bool) {
	if t, ok := r.entry(id); ok {
		return *t, true
	}
	return Tenant{}, false
}

// entry is Lookup without the copy: an entry is never written after Add.
func (r *Registry) entry(id string) (*Tenant, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.byID[id]
	return t, ok
}

// List returns every tenant sorted by id.
func (r *Registry) List() []Tenant {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Tenant, 0, len(r.byID))
	for _, t := range r.byID {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// LoadFile reads a registry from a JSON file: either a bare array of
// tenants or {"tenants": [...]}.
func LoadFile(path string) (*Registry, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("tenant: %w", err)
	}
	var wrapped struct {
		Tenants []Tenant `json:"tenants"`
	}
	if err := json.Unmarshal(b, &wrapped); err != nil || len(wrapped.Tenants) == 0 {
		var bare []Tenant
		if berr := json.Unmarshal(b, &bare); berr != nil {
			if err == nil {
				err = berr
			}
			return nil, fmt.Errorf("tenant: parsing %s: %w", path, err)
		}
		wrapped.Tenants = bare
	}
	if len(wrapped.Tenants) == 0 {
		return nil, fmt.Errorf("tenant: %s defines no tenants", path)
	}
	return NewRegistry(wrapped.Tenants...)
}
