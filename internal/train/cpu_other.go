//go:build !unix

package train

import "time"

// processCPU is zero where the platform has no getrusage.
func processCPU() time.Duration { return 0 }
