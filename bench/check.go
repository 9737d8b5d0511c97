package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"hypre/internal/combine"
	"hypre/internal/workload"
)

// Answer checks run at quiescence, outside the measured window. Every served
// answer must equal a from-scratch evaluation over the store as it is now
// (the maintained-answer ≡ re-evaluation invariant), and once the last mutate
// has been acknowledged no query may be served around the cache.

// checkResult counts the checks made and the ones that failed.
type checkResult struct {
	attempted, failed int
	firstErr          error
}

func (c *checkResult) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// checkServed re-queries the plan's check sample over the wire and compares
// each answer, pid for pid and score for score, with App.Uncached.
func checkServed(ctx context.Context, s *server, p *plan) checkResult {
	var c checkResult
	bypasses := s.app.Server().Counters().StaleBypasses.Load()
	for _, i := range p.checks {
		c.attempted++
		o := &p.ops[i]
		status, _, body, err := s.roundTrip(ctx, http.MethodPost, "/v1/query", o.body, true)
		if err != nil {
			c.fail(err)
			continue
		}
		if status != http.StatusOK {
			c.fail(fmt.Errorf("check query: status %d", status))
			continue
		}
		var got struct {
			Results []struct {
				PID   int64   `json:"pid"`
				Score float64 `json:"score"`
			} `json:"results"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			c.fail(fmt.Errorf("check query: %w", err))
			continue
		}
		want, err := s.app.Uncached(o.prefs, o.k)
		if err != nil {
			c.fail(err)
			continue
		}
		if len(got.Results) != len(want) {
			c.fail(fmt.Errorf("check op %d: served %d rows, re-evaluation gives %d", i, len(got.Results), len(want)))
			continue
		}
		for j, r := range got.Results {
			if r.PID != want[j].PID || r.Score != want[j].Intensity {
				c.fail(fmt.Errorf("check op %d row %d: served (%d, %v), re-evaluation gives (%d, %v)",
					i, j, r.PID, r.Score, want[j].PID, want[j].Intensity))
				break
			}
		}
	}
	c.attempted++
	if n := s.app.Server().Counters().StaleBypasses.Load() - bypasses; n != 0 {
		c.fail(fmt.Errorf("%d queries bypassed the cache after the last mutate was acknowledged", n))
	}
	return c
}

// checkPEPS compares the sharded run of each sampled op with serial
// combine.PEPS over the same evaluator state.
func checkPEPS(net *workload.Network, p *plan) checkResult {
	var c checkResult
	for _, i := range p.checks {
		c.attempted++
		o := &p.ops[i]
		got, err := runPEPS(net, o)
		if err != nil {
			c.fail(err)
			continue
		}
		ev := combine.NewEvaluator(net.DB, workload.BaseQuery, "dblp.pid")
		pt, err := combine.BuildPairTable(o.prefs, ev)
		if err != nil {
			c.fail(err)
			continue
		}
		want, err := combine.PEPS(o.prefs, pt, ev, o.k, combine.Complete)
		if err != nil {
			c.fail(err)
			continue
		}
		if len(got.Tuples) != len(want.Tuples) {
			c.fail(fmt.Errorf("check op %d: PEPSSharded gave %d tuples, PEPS %d", i, len(got.Tuples), len(want.Tuples)))
			continue
		}
		for j, t := range got.Tuples {
			if t != want.Tuples[j] {
				c.fail(fmt.Errorf("check op %d tuple %d: PEPSSharded gave %v, PEPS %v", i, j, t, want.Tuples[j]))
				break
			}
		}
	}
	return c
}
