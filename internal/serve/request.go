// Package serve turns the simulator into a long-lived
// simulation-as-a-service daemon: jobs arrive as JSON over HTTP, pass
// through a bounded admission queue with backpressure, execute on the
// existing scenario/experiments machinery with per-job deadlines and
// cooperative cancellation, and memoize their results in a
// content-addressed cache keyed by the canonical Config encoding
// (scenario.CanonicalKey), so identical submissions are served without
// recompute. Determinism is the contract throughout: a job executed
// through the server produces byte-identical results to the same config
// run through the CLI tools.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"rcast/internal/scenario"
)

// JobRequest is the submission body for POST /api/v1/jobs: a partial run
// configuration in field-table keys (scenario.Fields) plus the execution
// parameters reps, timeout_sec and trace. Absent keys keep the paper
// defaults (scenario.PaperDefaults); present keys are taken as given, so
// an explicit zero is a zero. "scheme" is required. Unknown keys are
// rejected so a typo cannot silently submit — and cache — the wrong
// experiment.
//
// The typed configuration fields are shorthands for the keys Go callers
// set most; a zero shorthand is absent. Set holds every other key.
// Decoding a body fills a shorthand with its key's value unless that
// value is zero, which stays in Set, so a body round-trips exactly.
type JobRequest struct {
	Scheme      string   `json:"scheme,omitempty"`
	Nodes       int      `json:"nodes,omitempty"`
	FieldW      float64  `json:"field_w,omitempty"`
	FieldH      float64  `json:"field_h,omitempty"`
	Connections int      `json:"connections,omitempty"`
	PacketRate  float64  `json:"packet_rate,omitempty"`
	DurationSec float64  `json:"duration_sec,omitempty"`
	PauseSec    *float64 `json:"pause_sec,omitempty"`
	Seed        *int64   `json:"seed,omitempty"`

	// Set holds the other configuration keys, including the legacy
	// static and fault_preset; a shorthand that is set wins over its key
	// here.
	Set scenario.Fields `json:"-"`

	Reps int `json:"reps,omitempty"`

	// TimeoutSec bounds the job's wall-clock execution; 0 selects the
	// server default. It is an execution parameter, not part of the
	// simulation, so it is deliberately excluded from the cache key.
	TimeoutSec float64 `json:"timeout_sec,omitempty"`

	// Trace requests a packet-lifecycle trace artifact alongside the
	// result, downloadable from GET /api/v1/jobs/{id}/trace once the job
	// is done. Like TimeoutSec it is an execution parameter outside the
	// cache key, but a traced submission always executes — it bypasses
	// both the result cache and in-flight coalescing, because a cached or
	// coalesced answer would have no trace to download. Tracing does not
	// perturb the simulation: the result stays byte-identical and is
	// still stored in the cache for later untraced submissions.
	Trace bool `json:"trace,omitempty"`
}

// jobExecKeys are a job body's keys outside the run configuration.
var jobExecKeys = []string{"reps", "timeout_sec", "trace"}

// jobFields is JobRequest without its JSON methods.
type jobFields JobRequest

// MarshalJSON writes the job body: the shorthands that are set, then Set.
func (jr JobRequest) MarshalJSON() ([]byte, error) {
	body, err := joinBody(jobFields(jr), jr.Set)
	if err != nil {
		return nil, err
	}
	return json.Marshal(body)
}

// UnmarshalJSON decodes a job body, rejecting keys outside the field
// table and the execution parameters.
func (jr *JobRequest) UnmarshalJSON(b []byte) error {
	var typed jobFields
	rest, err := splitBody(b, &typed, jobExecKeys...)
	if err == nil {
		err = rest.Check()
	}
	if err != nil {
		return err
	}
	*jr = JobRequest(typed)
	jr.Set = rest
	return nil
}

// ParseJobRequest decodes a submission body strictly: unknown fields and
// trailing garbage are errors.
func ParseJobRequest(r io.Reader) (JobRequest, error) {
	var req JobRequest
	if err := decodeBody(r, &req); err != nil {
		return req, fmt.Errorf("serve: bad job request: %w", err)
	}
	return req, nil
}

// Config resolves the request against the paper defaults and validates
// it, returning the runnable scenario.Config and the replication count.
func (jr JobRequest) Config() (scenario.Config, int, error) {
	body, err := joinBody(jobFields(jr), jr.Set)
	if err != nil {
		return scenario.Config{}, 0, err
	}
	for _, k := range jobExecKeys {
		delete(body, k)
	}
	if body["scheme"] == nil { // absent or null
		return scenario.Config{}, 0, fmt.Errorf("serve: job has no scheme")
	}
	if jr.TimeoutSec < 0 {
		return scenario.Config{}, 0, fmt.Errorf("serve: negative timeout_sec %v", jr.TimeoutSec)
	}
	cfg, err := body.Config()
	if err != nil {
		return cfg, 0, err
	}
	return cfg, max(jr.Reps, 1), nil
}

// splitBody decodes a JSON object into typed, a struct without JSON
// methods, and returns the keys typed did not absorb: those whose field
// is still zero after decoding, minus the keys named in drop.
func splitBody(b []byte, typed any, drop ...string) (scenario.Fields, error) {
	all, err := scenario.DecodeFields(b)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	if err := dec.Decode(typed); err != nil {
		return nil, err
	}
	absorbed, err := joinBody(typed, nil)
	if err != nil {
		return nil, err
	}
	for k := range absorbed {
		delete(all, k)
	}
	for _, k := range drop {
		delete(all, k)
	}
	return all, nil
}

// joinBody is the inverse of splitBody: the keys of typed's set fields,
// then those of set.
func joinBody(typed any, set scenario.Fields) (scenario.Fields, error) {
	b, err := json.Marshal(typed)
	if err != nil {
		return nil, err
	}
	all, err := scenario.DecodeFields(b)
	if err != nil {
		return nil, err
	}
	for k, v := range set {
		if _, ok := all[k]; !ok {
			all[k] = v
		}
	}
	return all, nil
}

// decodeBody decodes the JSON document in r into v; trailing data after
// it is an error.
func decodeBody(r io.Reader, v any) error {
	b, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// Timeout resolves the job's execution deadline against the server's
// default and ceiling.
func (jr JobRequest) Timeout(def, max time.Duration) time.Duration {
	d := def
	if jr.TimeoutSec > 0 {
		d = time.Duration(jr.TimeoutSec * float64(time.Second))
	}
	if max > 0 && d > max {
		d = max
	}
	return d
}
