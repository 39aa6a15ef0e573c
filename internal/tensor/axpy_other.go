//go:build !amd64

package tensor

func axpyRows(d, b []float32, at []int, coef []float32) { axpyRowsGo(d, b, at, coef) }
