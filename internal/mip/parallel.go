package mip

import (
	"container/heap"
	"context"

	"github.com/vbcloud/vb/internal/lp"
	"github.com/vbcloud/vb/internal/par"
)

// Parallel branch and bound.
//
// Determinism argument: with Workers >= 1 every non-root node is evaluated
// as a PURE function of its change list — the worker instance is reset to
// the root-optimal template state before applying the node's bounds, so the
// LP result (status, objective, solution vector, pivot count) cannot depend
// on which worker ran it or what that worker solved before. The shared
// branchAndBound loop processes nodes in strict best-first (bound, node-id)
// order and asks parallelEval for each one; parallelEval answers from a
// result cache keyed by node id, which workers only ever fill
// speculatively. Incumbent updates, pruning, branching, and node ids all
// happen in that sequential processing order, so the entire search tree —
// and the returned solution, bit for bit — is identical for any worker
// count >= 1. (Workers = 0 uses serialEval, which chains each node solve
// off the previous node's basis and therefore follows a different, also
// deterministic, pivot path.)

// parallelEval evaluates nodes in speculative best-first batches on cloned
// worker instances.
type parallelEval struct {
	workers  int
	minSense func(float64) float64
	template *lp.Instance   // root-optimal state every non-root node starts from
	insts    []*lp.Instance // per-worker clones, created on first use
	results  map[int64]*nodeResult
}

// newParallelEval solves the root on the carried instance itself,
// preserving the warm start, and snapshots the root-optimal state as the
// template every other node starts from.
func newParallelEval(inst *lp.Instance, workers int, minSense func(float64) float64) *parallelEval {
	root := &nodeResult{}
	solveNode(inst, nil, minSense, root)
	return &parallelEval{
		workers:  workers,
		minSense: minSense,
		template: inst.Clone(),
		insts:    make([]*lp.Instance, workers),
		results:  map[int64]*nodeResult{0: root},
	}
}

func (e *parallelEval) eval(nd *node, q *nodeQueue, incumbent float64) *nodeResult {
	r, ok := e.results[nd.id]
	if !ok {
		// Evaluate nd plus up to workers-1 speculative best-first nodes
		// concurrently. Speculation is invisible to the search: results
		// land in the cache and errors surface only if the node is
		// actually processed.
		batch := []*node{nd}
		popped := (*q)[:0:0]
		for len(batch) < e.workers && q.Len() > 0 {
			s := heap.Pop(q).(*node)
			popped = append(popped, s)
			if _, done := e.results[s.id]; !done && s.bound < incumbent-intTol {
				batch = append(batch, s)
			}
		}
		for _, s := range popped {
			heap.Push(q, s)
		}
		got := make([]*nodeResult, len(batch))
		_ = par.ForEach(context.Background(), len(batch), e.workers, func(i int) error {
			if e.insts[i] == nil {
				e.insts[i] = e.template.Clone()
			}
			w := e.insts[i]
			w.CopyStateFrom(e.template)
			got[i] = &nodeResult{}
			solveNode(w, batch[i].changes, e.minSense, got[i])
			return nil
		})
		for i, s := range batch {
			e.results[s.id] = got[i]
		}
		r = e.results[nd.id]
	}
	delete(e.results, nd.id)
	return r
}
