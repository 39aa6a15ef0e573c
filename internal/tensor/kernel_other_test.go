//go:build !amd64

package tensor

import "testing"

// forEachKernel runs f on the one row kernel: the portable loop.
func forEachKernel(t *testing.T, f func(t *testing.T)) { t.Run("portable", f) }
