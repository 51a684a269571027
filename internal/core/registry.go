package core

import "fmt"

// policyRegistry is the table of named overhearing policies, in
// presentation order. Adding a policy to the simulator is one entry here:
// the name then resolves everywhere a policy can be spelled — the
// scenario.Config.PolicyName field and its canonical encoding, the
// sweep policy axes, the rcast-sim/rcast-bench -policy flags, the
// rcast-serve job and sweep APIs, and the {policy} metrics label.
//
// Registered policies must be stateless values (their behaviour a pure
// function of the RNG stream and ListenContext) so that resolving a name
// twice yields interchangeable policies and named runs stay deterministic.
var policyRegistry = []Policy{
	Rcast{},
	Unconditional{},
	None{},
	SenderID{},
	Battery{},
	Mobility{},
	Combined{},
}

// Policies returns the registered policies in presentation order. The
// slice is a copy; mutating it does not affect the registry.
func Policies() []Policy {
	return append([]Policy(nil), policyRegistry...)
}

// PolicyNames lists the registered policy names in presentation order.
func PolicyNames() []string {
	names := make([]string, len(policyRegistry))
	for i, p := range policyRegistry {
		names[i] = p.Name()
	}
	return names
}

// ParsePolicy resolves a registered policy by its Name.
func ParsePolicy(name string) (Policy, error) {
	for _, p := range policyRegistry {
		if p.Name() == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("core: unknown policy %q (want one of %v)", name, PolicyNames())
}

// PolicyKnown reports whether name resolves to a registered policy.
func PolicyKnown(name string) bool {
	_, err := ParsePolicy(name)
	return err == nil
}
