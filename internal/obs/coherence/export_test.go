package coherence

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
