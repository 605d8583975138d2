package coherence

import "slices"

// The tests that run a tree (tree_test.go) drive it on package sim,
// which an internal test cannot import: sim imports obshttp, which
// imports this package. They see these through the external test
// package.
var (
	ProtoName = protoName
	ColIM     = colIM
	ColBC     = colBC
)

const (
	IdxM = idxM
	IdxO = idxO
)

// StateIndex maps a state letter to its StateLetters index (-1 if the
// letter is not one of M/O/E/S/I).
func StateIndex(letter string) int { return slices.Index(StateLetters[:], letter) }
