package service

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"pacram/internal/scenario"
)

// This file is the daemon's one compile path. Submit, validate and the
// fabric's execute endpoint all resolve specs here, so each distinct
// spec is parsed and compiled once per process: catalog names hit the
// plans New compiled at startup, and spec documents hit a cache keyed
// by the sha256 of their bytes.

// compiled is one resolved spec: the parsed spec, its plan, and its
// wire bytes — json.Marshal(spec), which execute requests ship so
// fleet workers compile the identical plan (key identity across
// marshal→parse→compile is pinned by scenario.TestSpecWireRoundTrip).
// A compiled value is shared by every job that resolves to it and is
// never mutated after construction.
type compiled struct {
	spec *scenario.Spec
	plan *scenario.Plan
	wire []byte
}

// compileSpec compiles a parsed spec and marshals its wire bytes.
func compileSpec(sp *scenario.Spec) (*compiled, error) {
	plan, err := sp.Compile()
	if err != nil {
		return nil, err
	}
	wire, err := json.Marshal(sp)
	if err != nil {
		return nil, fmt.Errorf("marshaling spec for dispatch: %w", err)
	}
	return &compiled{spec: sp, plan: plan, wire: wire}, nil
}

// maxPlanCells bounds the cache by the cells its plans hold in total,
// not by entry count: a compiled plan costs about 0.75 KB of heap per
// cell, so the bound pins at most about 48 MB. One plan of the largest
// size Compile accepts fits alone; a bigger one is never cached.
const maxPlanCells = 1 << 16

// planCache holds compiled spec documents keyed by the sha256 of their
// bytes. On overflow it starts over: a daemon serving a rotating set
// of specs stays under the bound easily, and overflow just recompiles.
// Catalog plans live outside it (Server.catalogPlans).
type planCache struct {
	mu    sync.Mutex
	plans map[[32]byte]*compiled
	cells int // sum of Plan.Jobs() over plans
	limit int // cell bound; 0 means maxPlanCells (tests set a small one)
}

// get returns the compiled form of a spec document and whether it was
// served from the cache. A document that fails to parse or compile
// caches nothing. Compiling reads nothing but the document's bytes
// (scenario rejects a trace path), so the key determines the plan.
func (c *planCache) get(doc []byte) (*compiled, bool, error) {
	key := sha256.Sum256(doc)
	c.mu.Lock()
	cp, ok := c.plans[key]
	c.mu.Unlock()
	if ok {
		return cp, true, nil
	}
	sp, err := scenario.Parse(doc)
	if err != nil {
		return nil, false, err
	}
	if cp, err = compileSpec(sp); err != nil {
		return nil, false, err
	}
	c.put(key, cp)
	return cp, false, nil
}

func (c *planCache) put(key [32]byte, cp *compiled) {
	limit := c.limit
	if limit == 0 {
		limit = maxPlanCells
	}
	n := cp.plan.Jobs()
	if n > limit {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.plans[key]; ok {
		return // a concurrent miss on the same document got here first
	}
	if c.plans == nil || c.cells+n > limit {
		c.plans = make(map[[32]byte]*compiled)
		c.cells = 0
	}
	c.plans[key] = cp
	c.cells += n
}

// planFor resolves a spec document through the plan cache, counting
// the lookup as a hit or a miss.
func (s *Server) planFor(doc []byte) (*compiled, error) {
	cp, hit, err := s.plans.get(doc)
	if hit {
		s.metrics.planHits.Inc()
	} else {
		s.metrics.planMisses.Inc()
	}
	return cp, err
}

// resolveSpec turns a SubmitRequest into a compiled plan, classifying
// failures: client errors (bad request shape, unknown name, invalid
// spec) map to 4xx. A catalog name resolves to the plan New compiled;
// a name it does not know is a 404 with scenario.ByName's text.
func (s *Server) resolveSpec(req SubmitRequest) (*compiled, int, error) {
	switch {
	case req.Scenario != "" && len(req.Spec) > 0:
		return nil, http.StatusBadRequest, fmt.Errorf("give either scenario or spec, not both")
	case req.Scenario != "":
		if cp, ok := s.catalogPlans[req.Scenario]; ok {
			s.metrics.planHits.Inc()
			return cp, http.StatusOK, nil
		}
		// New kept every built-in, so ByName only words the miss.
		s.metrics.planMisses.Inc()
		_, err := scenario.ByName(req.Scenario)
		return nil, http.StatusNotFound, err
	case len(req.Spec) > 0:
		cp, err := s.planFor(req.Spec)
		if err != nil {
			return nil, http.StatusUnprocessableEntity, err
		}
		return cp, http.StatusOK, nil
	default:
		return nil, http.StatusBadRequest, fmt.Errorf("give a scenario name or an inline spec")
	}
}
