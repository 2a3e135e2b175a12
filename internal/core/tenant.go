package core

import "fmt"

// Class distinguishes latency-critical tenants, which have guaranteed
// tail-latency and throughput allocations, from best-effort tenants, which
// opportunistically use spare bandwidth (§3.2).
type Class uint8

const (
	// LatencyCritical tenants register an SLO and receive a guaranteed
	// token supply.
	LatencyCritical Class = iota
	// BestEffort tenants share the unallocated token rate fairly.
	BestEffort
)

// String returns "LC" or "BE".
func (c Class) String() string {
	if c == BestEffort {
		return "BE"
	}
	return "LC"
}

// SLO is a latency-critical tenant's service-level objective: a tail read
// latency limit at a certain throughput and read/write ratio (§3.2). For
// example {IOPS: 50000, ReadPercent: 80, LatencyP95: 200_000} reads as
// "50K IOPS with 200µs p95 read latency at an 80% read ratio".
type SLO struct {
	// IOPS is the guaranteed request rate, assuming 4KB requests.
	IOPS int
	// ReadPercent is the declared read ratio in [0, 100].
	ReadPercent int
	// LatencyP95 is the 95th-percentile read latency bound in nanoseconds.
	// Zero means "no latency requirement" (only meaningful for BE tenants).
	LatencyP95 int64
}

// Validate reports SLO configuration errors for an LC tenant.
func (s SLO) Validate() error {
	switch {
	case s.IOPS <= 0:
		return fmt.Errorf("core: SLO IOPS must be positive")
	case s.ReadPercent < 0 || s.ReadPercent > 100:
		return fmt.Errorf("core: SLO ReadPercent out of [0,100]")
	case s.LatencyP95 <= 0:
		return fmt.Errorf("core: SLO LatencyP95 must be positive")
	}
	return nil
}

// TenantStats are cumulative per-tenant counters maintained by the
// scheduler.
type TenantStats struct {
	Enqueued        uint64
	Submitted       uint64
	SubmittedTokens Tokens
	// NegLimitHits counts scheduler rounds that ended with the tenant at
	// or below the burst deficit floor (LC only).
	NegLimitHits uint64
	// Donated is the total millitokens given to the global bucket.
	Donated Tokens
	// Claimed is the total millitokens taken from the global bucket (BE).
	Claimed Tokens
}

// Tenant is the accounting and enforcement unit for SLOs (§3.2: "A tenant
// is a logical abstraction for accounting for and enforcing service-level
// objectives"). A tenant definition can be shared by many network
// connections. Tenants are not safe for concurrent use; each tenant is
// owned by exactly one scheduler (thread), as in the paper (§4.1
// "Limitations": one thread per tenant).
type Tenant struct {
	ID    int
	Name  string
	Class Class
	SLO   SLO

	// tokens is the current balance; may go negative down to the burst
	// floor for LC tenants.
	tokens Tokens
	// genRem carries sub-millitoken generation remainders (mt·ns) so that
	// long-run generation rates are exact.
	genRem int64
	// grants holds the last three rounds' token grants; their sum is the
	// POS_LIMIT accumulation cap (§3.2.2).
	grants [3]Tokens
	// rate is the cached generation rate in mt/s (LC only).
	rate Tokens

	queue    reqQueue
	demand   Tokens // total cost of queued requests
	belowNeg bool   // currently at/below NEG_LIMIT (for edge-triggered notify)
	stats    TenantStats
}

// NewTenant creates a tenant. LC tenants must carry a valid SLO.
func NewTenant(id int, name string, class Class, slo SLO) (*Tenant, error) {
	if class == LatencyCritical {
		if err := slo.Validate(); err != nil {
			return nil, fmt.Errorf("tenant %q: %w", name, err)
		}
	}
	return &Tenant{ID: id, Name: name, Class: class, SLO: slo}, nil
}

// Tokens returns the tenant's current token balance in millitokens.
func (t *Tenant) Tokens() Tokens { return t.tokens }

// Demand returns the total cost of the tenant's queued requests.
func (t *Tenant) Demand() Tokens { return t.demand }

// QueueLen returns the number of queued requests.
func (t *Tenant) QueueLen() int { return t.queue.len() }

// Drop empties the tenant's software queue, oldest first, handing each
// request to fn: how a server retires the queued requests of a tenant it
// unregisters or shuts down.
func (t *Tenant) Drop(fn func(*Request)) {
	for r := t.queue.pop(); r != nil; r = t.queue.pop() {
		t.demand -= r.cost
		fn(r)
	}
}

// Stats returns a copy of the tenant's counters.
func (t *Tenant) Stats() TenantStats { return t.stats }

// Rate returns the tenant's token generation rate in millitokens/second
// (zero until the tenant is registered with a scheduler, and always zero
// for BE tenants, whose rate is a fair share computed each round).
func (t *Tenant) Rate() Tokens { return t.rate }

// pushGrant records a round's token grant for the POS_LIMIT window.
func (t *Tenant) pushGrant(g Tokens) {
	t.grants[0], t.grants[1], t.grants[2] = t.grants[1], t.grants[2], g
}

// posLimit is the accumulation cap: the tokens granted over the last three
// scheduling rounds (§3.2.2: "POS_LIMIT is empirically set to the number
// of tokens the LC tenant received in the last three scheduling rounds").
func (t *Tenant) posLimit() Tokens {
	return t.grants[0] + t.grants[1] + t.grants[2]
}

// generate accrues dt nanoseconds of token generation at rate mt/s.
func (t *Tenant) generate(rate Tokens, dt int64) Tokens {
	if rate <= 0 || dt <= 0 {
		return 0
	}
	total := rate*dt + t.genRem
	grant := total / 1e9
	t.genRem = total % 1e9
	t.tokens += grant
	return grant
}
