package campaign

import "rff/internal/exec"

// PairCover records the first time an rf-pair was covered, at an
// execution index: 1-based within one collector's stream, or shifted
// onto a wider scale by CoverCollector.Merge (the budgeted matrix uses
// matrix-global indexes).
type PairCover struct {
	Pair string `json:"pair"`
	At   int64  `json:"at"`
}

// CoverCollector is the first-cover rf-pair collector: it counts the
// executions it observes and records each distinct rf-pair once, in
// first-cover order, with the index of the execution that first
// covered it. It is not safe for concurrent use; during a fleet wave
// one cell owns it and the merge barrier reads it afterwards.
type CoverCollector struct {
	// Execs is the number of executions observed.
	Execs int
	// Covers lists every distinct pair once, in first-cover order.
	Covers []PairCover
	seen   map[string]struct{}
}

// NewCoverCollector returns an empty collector.
func NewCoverCollector() *CoverCollector {
	return &CoverCollector{seen: make(map[string]struct{})}
}

// Observe is a ResultObserver: it counts the execution and records the
// pairs it covered first. It copies what it keeps, so the trace may be
// recycled once it returns.
func (c *CoverCollector) Observe(res *exec.Result) {
	c.Execs++
	if res.Trace == nil {
		return
	}
	for _, p := range res.Trace.RFPairs() {
		k := p.String()
		if _, ok := c.seen[k]; !ok {
			c.seen[k] = struct{}{}
			c.Covers = append(c.Covers, PairCover{Pair: k, At: int64(c.Execs)})
		}
	}
}

// Merge folds other's covers into c in other's first-cover order,
// skipping pairs c has already covered and shifting each index by
// offset. It returns the number of pairs added. Execs is left alone:
// merged indexes are already on c's scale.
func (c *CoverCollector) Merge(other *CoverCollector, offset int64) int {
	added := 0
	for _, pc := range other.Covers {
		if _, ok := c.seen[pc.Pair]; ok {
			continue
		}
		c.seen[pc.Pair] = struct{}{}
		c.Covers = append(c.Covers, PairCover{Pair: pc.Pair, At: offset + pc.At})
		added++
	}
	return added
}
