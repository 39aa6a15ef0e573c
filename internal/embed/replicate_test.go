package embed

import (
	"testing"

	"bagpipe/internal/core"
)

// replicaSet writes row id=val to every server of its R-replica set on the
// ownership ring, mimicking what the replicated tier client does.
func writeReplicated(tier []*Server, id uint64, row []float32, replicate int) {
	S := len(tier)
	owner := core.OwnerOf(id, S)
	for k := 0; k < replicate; k++ {
		tier[(owner+k)%S].Write([]uint64{id}, [][]float32{row})
	}
}

func TestFingerprintPartSumsToWhole(t *testing.T) {
	s := NewServer(3, 4, 7, 0.1)
	for id := uint64(0); id < 40; id++ {
		s.Write([]uint64{id}, [][]float32{{float32(id), 1, 2, 3}})
	}
	whole := s.Fingerprint()
	for _, of := range []int{1, 2, 3, 5} {
		var sum uint64
		for part := 0; part < of; part++ {
			sum += s.FingerprintPart(part, of)
		}
		if sum != whole {
			t.Fatalf("partition fingerprints (of=%d) sum to %x, whole is %x", of, sum, whole)
		}
	}
	// Partition scoping must be real: a 1-of-3 slice of a non-empty server
	// differs from the whole.
	if s.FingerprintPart(0, 3) == whole {
		t.Fatal("partition fingerprint equals the whole server's")
	}
	for _, bad := range [][2]int{{0, 0}, {-1, 2}, {2, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("FingerprintPart(%d, %d) did not panic", bad[0], bad[1])
				}
			}()
			s.FingerprintPart(bad[0], bad[1])
		}()
	}
}

func TestMergeTierReplicatedSurvivesDeadServer(t *testing.T) {
	const S, R = 3, 2
	tier := make([]*Server, S)
	for i := range tier {
		tier[i] = NewServer(2, 4, 99, 0.1)
	}
	ref := NewServer(2, 4, 99, 0.1)
	for id := uint64(0); id < 30; id++ {
		row := []float32{float32(id), -1, 0.5, 2}
		writeReplicated(tier, id, row, R)
		ref.Write([]uint64{id}, [][]float32{row})
	}

	// Fully live: the merge must equal the unsharded reference.
	merged, err := MergeTierReplicated(tier, R, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := Diff(ref, merged); len(d) != 0 {
		t.Fatalf("live replicated merge differs at %v", d)
	}

	// Kill each server in turn: R=2 must reconstruct the full state from
	// the survivors, whichever server died.
	for dead := 0; dead < S; dead++ {
		maimed := make([]*Server, S)
		copy(maimed, tier)
		maimed[dead] = nil
		deadSet := make([]bool, S)
		deadSet[dead] = true
		merged, err := MergeTierReplicated(maimed, R, deadSet)
		if err != nil {
			t.Fatalf("dead server %d: %v", dead, err)
		}
		if d := Diff(ref, merged); len(d) != 0 {
			t.Fatalf("merge without server %d differs at %v", dead, d)
		}
	}
}

func TestMergeTierReplicatedDetectsDivergence(t *testing.T) {
	const S, R = 3, 2
	tier := make([]*Server, S)
	for i := range tier {
		tier[i] = NewServer(2, 4, 99, 0.1)
	}
	writeReplicated(tier, 7, []float32{1, 2, 3, 4}, R)
	// Corrupt the replica copy only: a lost replicated write.
	owner := core.OwnerOf(7, S)
	tier[(owner+1)%S].Write([]uint64{7}, [][]float32{{1, 2, 3, 5}})
	if _, err := MergeTierReplicated(tier, R, nil); err == nil {
		t.Fatal("diverged replicas merged without error")
	}
}

func TestMergeTierReplicatedValidation(t *testing.T) {
	tier := []*Server{NewServer(2, 4, 1, 0.1), NewServer(2, 4, 1, 0.1)}
	if _, err := MergeTierReplicated(tier, 0, nil); err == nil {
		t.Fatal("replicate 0 accepted")
	}
	if _, err := MergeTierReplicated(tier, 3, nil); err == nil {
		t.Fatal("replicate > S accepted")
	}
	if _, err := MergeTierReplicated(tier, 2, []bool{true}); err == nil {
		t.Fatal("misaligned dead set accepted")
	}
	if _, err := MergeTierReplicated([]*Server{nil, tier[1]}, 2, nil); err == nil {
		t.Fatal("nil live server accepted")
	}
	if _, err := MergeTierReplicated(tier, 2, []bool{true, true}); err == nil {
		t.Fatal("all-dead tier accepted")
	}
	// Unreplicated ownership violation still caught through the new path:
	// a row materialized outside its replica set means the sharding map was
	// broken somewhere.
	tier[1].Write([]uint64{0}, [][]float32{{1, 2, 3, 4}}) // owner 0, R=1
	if _, err := MergeTierReplicated(tier, 1, nil); err == nil {
		t.Fatal("out-of-set row accepted")
	}
}
