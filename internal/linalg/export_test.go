package linalg

// Tred2 and Tred2Ref let the external test package, which can import
// laplacian and gen, compare the Householder reduction with its reference.
var (
	Tred2    = tred2
	Tred2Ref = tred2Ref
)
