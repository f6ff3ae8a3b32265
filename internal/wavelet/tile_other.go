//go:build !amd64

package wavelet

// analyzeInterior runs analyzeTile's interior; without an assembly
// version it is the Go one.
func analyzeInterior(w *Orthogonal, x, a, d [4][]float64, ni int) {
	analyzeInteriorGo(w, x, a, d, ni)
}

// synthesizeInterior runs synthesizeTile's interior; without an assembly
// version it is the Go one.
func synthesizeInterior(w *Orthogonal, a, d, x [4][]float64, ni int) {
	synthesizeInteriorGo(w, a, d, x, ni)
}
