package serve

import (
	"hypre/internal/admit"
	"hypre/internal/obs"
)

// The wire encoders, for the external tests that pin their bytes.
var (
	AppendScore        = appendScore
	WriteJSON          = writeJSON
	WriteQueryResponse = writeQueryResponse
)

// Registry exposes the metrics registry to the external tests.
func (a *App) Registry() *obs.Registry { return a.reg }

// QueryGate exposes the query admission gate's ledger to the external
// tests.
func (a *App) QueryGate() *admit.Gate { return a.queryGate }
