package phy

// Internal constants the external reach-list tests aim their probes with.
const (
	SkinFrac = skinFrac
	ReachEps = reachEps
)
