package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"rcast/internal/core"
	"rcast/internal/fault"
)

// CanonicalVersion stamps the canonical Config encoding. Bump it whenever
// the encoded schema changes meaning (a field added, removed, or
// reinterpreted), so old cache keys can never alias new configurations.
// The golden test in canonical_test.go pins the exact bytes: accidental
// drift breaks CI instead of silently splitting result caches.
//
// v2: added the channel (propagation model) and mobility model fields.
// v3: added the named overhearing policy and tx_power_dbm fields.
const CanonicalVersion = 3

// ErrNotCanonical reports a Config carrying runtime-only state (a custom
// Policy, a Trace sink, a programmatic DSR gossip hook) that has no stable
// serialized form and therefore cannot be canonically encoded.
var ErrNotCanonical = errors.New("scenario: config has runtime-only fields and no canonical encoding")

// CanonicalJSON returns the canonical, version-stamped JSON encoding of
// cfg: one line, the field table's order, every field explicit (defaults
// included), simulation times as integer microseconds. Two Configs encode
// to the same bytes if and only if they describe the same simulation, so
// the encoding is a sound content-address for result caches.
//
// Runtime-only fields — Policy, Trace, Replay, DSR.Gossip,
// DSR.NeighborCount — must be nil; anything else returns ErrNotCanonical.
// (GossipFanout is the canonical way to enable the broadcast-Rcast
// extension; PolicyName is the canonical way to pick an overhearing
// policy.) The encoded "policy" field is the effective policy name — an
// explicit PolicyName equal to the scheme default encodes identically to
// leaving it empty, so the two spellings share a cache key.
func (c Config) CanonicalJSON() ([]byte, error) {
	switch {
	case c.Policy != nil:
		return nil, fmt.Errorf("%w: Policy is set (use PolicyName for registered policies)", ErrNotCanonical)
	case c.PolicyName != "" && !core.PolicyKnown(c.PolicyName):
		return nil, fmt.Errorf("%w: unknown policy %q (want one of %v)", ErrNotCanonical, c.PolicyName, core.PolicyNames())
	case c.overridesPolicy() && c.Scheme == SchemeAlwaysOn:
		return nil, fmt.Errorf("%w: scheme %v ignores overhearing policies", ErrNotCanonical, c.Scheme)
	case c.Trace != nil:
		return nil, fmt.Errorf("%w: Trace sink is set", ErrNotCanonical)
	case c.Replay != nil:
		return nil, fmt.Errorf("%w: Replay hooks are set", ErrNotCanonical)
	case c.DSR.Gossip != nil || c.DSR.NeighborCount != nil:
		return nil, fmt.Errorf("%w: DSR gossip hooks are set (use GossipFanout)", ErrNotCanonical)
	}
	buf := []byte{'{'}
	for i := range fieldTable {
		f := &fieldTable[i]
		if f.input {
			continue
		}
		get := f.get
		if f.canon != nil {
			get = f.canon
		}
		v, err := json.Marshal(get(&c))
		if err != nil {
			return nil, err
		}
		if len(buf) > 1 {
			buf = append(buf, ',')
		}
		buf = append(append(append(buf, '"'), f.key...), '"', ':')
		buf = append(buf, v...)
	}
	return append(buf, '}'), nil
}

// canonicalSigma normalizes the shadowing sigma: it only affects runs with
// Channel "shadowing", so any other channel encodes 0 — a stray sigma on a
// disk config must not split the cache key.
func canonicalSigma(c *Config) float64 {
	if c.channelName() != "shadowing" {
		return 0
	}
	return c.ShadowSigmaDB
}

// onlyGroup normalizes a group-mobility parameter: only the "group" model
// reads it, so other models encode 0 and group configs encode the
// effective value.
func onlyGroup[T int | float64](c *Config, v T) T {
	if c.mobilityName() != "group" {
		return 0
	}
	return v
}

// canonicalFaults normalizes a fault plan: nil stays nil (encoded as JSON
// null); nil slices become empty ones, so a plan built with nil slices and
// one built with empty slices — identical behaviour — encode identically.
func canonicalFaults(p *fault.Plan) *fault.Plan {
	if p == nil {
		return nil
	}
	cp := *p
	if cp.Crashes == nil {
		cp.Crashes = []fault.Crash{}
	}
	if cp.Partitions == nil {
		cp.Partitions = []fault.Partition{}
	}
	return &cp
}

// CanonicalKey content-addresses a replication batch: the hex SHA-256 of
// the canonical Config encoding plus the replication count. Identical
// (config, reps) pairs — however they were expressed — hash identically,
// so the key is safe to use for result memoization.
func (c Config) CanonicalKey(reps int) (string, error) {
	if reps < 1 {
		reps = 1
	}
	b, err := c.CanonicalJSON()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write(b)
	fmt.Fprintf(h, "|reps=%d", reps)
	return hex.EncodeToString(h.Sum(nil)), nil
}
