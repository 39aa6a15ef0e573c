package nn

import "math"

// BCEWithLogits computes the mean binary cross-entropy between logits and
// 0/1 labels, and the gradient of that mean loss with respect to the
// logits, writing it into dlogits (which must have len(logits)).
//
// The loss uses the numerically stable formulation
// max(z,0) − z·y + log(1+exp(−|z|)).
func BCEWithLogits(logits, labels, dlogits []float32) float32 {
	if len(logits) != len(labels) || len(dlogits) != len(logits) {
		panic("nn: BCEWithLogits length mismatch")
	}
	n := float64(len(logits))
	var total float64
	inv := float32(1.0 / n)
	for i, z := range logits {
		y := labels[i]
		zf := float64(z)
		total += math.Max(zf, 0) - zf*float64(y) + math.Log1p(math.Exp(-math.Abs(zf)))
		dlogits[i] = (SigmoidScalar(z) - y) * inv
	}
	return float32(total / n)
}
