// Package service is the PDW solve service behind cmd/pdwd: a
// versioned JSON wire schema over the canonical pathdriver.Request /
// Response shapes, admission control over a bounded worker pool,
// an incumbent cache (TinyLFU admission: one-off keys cannot flush
// repeated ones) with single-flight request coalescing, and
// load shedding to the heuristic warm-start under pressure
// (DESIGN.md "The solve service").
package service

import (
	"encoding/json"
	"fmt"
	"io"

	"pathdriverwash/internal/assayio"
	"pathdriverwash/internal/scheduleio"
	"pathdriverwash/internal/solve"
	"pathdriverwash/pkg/pathdriver"
)

// SchemaV1 is the wire schema version this service speaks. Requests
// must carry it (or omit the field, which means v1); responses always
// echo it. Schema changes that break decoding bump the version.
const SchemaV1 = "pdw.v1"

// SolveRequest is the body of POST /v1/solve: the canonical
// pathdriver.Request plus the schema version. The assay and options
// objects are exactly the library's JSON shapes — budgets are "2s"-style
// duration strings (or integer nanoseconds), unknown fields are
// rejected at every nesting level.
type SolveRequest struct {
	// Schema is the wire schema version; "" means SchemaV1.
	Schema string `json:"schema,omitempty"`
	// Method selects the optimizer: "pdw" (default) or "dawo".
	Method pathdriver.Method `json:"method,omitempty"`
	// Assay is the protocol and chip-synthesis configuration.
	Assay assayio.Document `json:"assay"`
	// Options tunes the solve; its budget is clamped by the server.
	Options pathdriver.Options `json:"options"`
}

// SolveResponse is the body answered by POST /v1/solve. On errors only
// Schema and Error are set (plus the HTTP status).
type SolveResponse struct {
	Schema string            `json:"schema"`
	Method pathdriver.Method `json:"method,omitempty"`

	// Degraded marks a load-shed response: the solve ran the cheap
	// heuristic warm-start instead of the exact pipeline. The schedule
	// is still verified contamination-free.
	Degraded bool `json:"degraded,omitempty"`
	// Cached marks a response served from the incumbent cache.
	Cached bool `json:"cached,omitempty"`
	// Coalesced marks a response that piggybacked on an identical
	// in-flight solve instead of running its own.
	Coalesced bool `json:"coalesced,omitempty"`
	// Canceled mirrors Stats.Canceled: the budget expired and later
	// phases returned their best feasible incumbents.
	Canceled bool `json:"canceled,omitempty"`

	// The paper's evaluation quantities (vs the wash-free reference).
	NWash          int     `json:"n_wash"`
	LWashMM        float64 `json:"l_wash_mm"`
	TAssayS        int     `json:"t_assay_s"`
	TDelayS        int     `json:"t_delay_s"`
	Objective      float64 `json:"objective,omitempty"`
	WindowsOptimal bool    `json:"windows_optimal,omitempty"`
	Rounds         int     `json:"rounds,omitempty"`

	// Stats is the structured solve telemetry (omitted on cache hits,
	// which carry the original solve's stats).
	Stats *solve.Stats `json:"stats,omitempty"`
	// Schedule is the optimized execution procedure in the scheduleio
	// document shape.
	Schedule *scheduleio.Document `json:"schedule,omitempty"`

	// Error is the failure description when the solve did not produce
	// a schedule.
	Error string `json:"error,omitempty"`
}

// maxRequestBytes bounds a request body; the largest Table II assay
// document is ~10 KB, so 4 MB is generous headroom.
const maxRequestBytes = 4 << 20

// DecodeRequest reads and validates one SolveRequest. Unknown fields
// anywhere in the body are rejected (including inside the budget
// object, whose custom unmarshaler is strict on its own).
func DecodeRequest(r io.Reader) (*SolveRequest, error) {
	dec := json.NewDecoder(io.LimitReader(r, maxRequestBytes))
	dec.DisallowUnknownFields()
	var req SolveRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("service: bad request: %w: %w", err, solve.ErrInvalidAssay)
	}
	if dec.More() {
		return nil, fmt.Errorf("service: trailing data after request: %w", solve.ErrInvalidAssay)
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

// Validate checks the envelope: schema version and method. Assay
// validation happens inside the solve (it needs the full decoder).
func (r *SolveRequest) Validate() error {
	if r.Schema != "" && r.Schema != SchemaV1 {
		return fmt.Errorf("service: unsupported schema %q (this server speaks %q): %w",
			r.Schema, SchemaV1, solve.ErrInvalidAssay)
	}
	switch r.Method {
	case "", pathdriver.MethodPDW, pathdriver.MethodDAWO:
		return nil
	default:
		return fmt.Errorf("service: unknown method %q (want %q or %q): %w",
			r.Method, pathdriver.MethodPDW, pathdriver.MethodDAWO, solve.ErrInvalidAssay)
	}
}

// request lowers the wire shape onto the library's canonical Request.
func (r *SolveRequest) request() pathdriver.Request {
	return pathdriver.Request{Assay: r.Assay, Method: r.Method, Options: r.Options}
}
