package embed

import (
	"sync"
	"testing"

	"bagpipe/internal/core"
)

// TestLiveWriteMark walks the live-write mark rule one op at a time on a
// one-shard server: a live write marks its row, a recovery write skips a
// marked row and leaves a stored one unmarked, BeginRecovery clears the
// marks, and a slot a shed row frees starts unmarked when reused.
func TestLiveWriteMark(t *testing.T) {
	// kept survives RetainOwned(0, 2, 1); shed does not.
	kept, shed := uint64(0), uint64(0)
	for id := uint64(1); kept == 0 || shed == 0; id++ {
		if core.OwnerOf(id, 2) == 0 {
			kept = id
		} else {
			shed = id
		}
	}
	type op struct {
		kind string // "live", "recovery", "begin" or "retain"
		id   uint64
		val  float32
	}
	for _, tc := range []struct {
		name string
		ops  []op
		want float32 // kept's final value
	}{
		{"live then recovery", []op{{"live", kept, 1}, {"recovery", kept, 2}}, 1},
		{"recovery then live", []op{{"recovery", kept, 1}, {"live", kept, 2}}, 2},
		{"recovery then recovery", []op{{"recovery", kept, 1}, {"recovery", kept, 2}}, 2},
		{"begin clears the marks", []op{{"live", kept, 1}, {"begin", 0, 0}, {"recovery", kept, 2}}, 2},
		{"live after begin marks again", []op{{"live", kept, 1}, {"begin", 0, 0}, {"live", kept, 2}, {"recovery", kept, 3}}, 2},
		// shed's slot is the most recently freed one, so kept reuses it.
		{"reused slot starts unmarked", []op{{"live", shed, 1}, {"retain", 0, 0}, {"recovery", kept, 2}, {"recovery", kept, 3}}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := NewServer(1, 4, 3, 0.1)
			for _, o := range tc.ops {
				row := [][]float32{{o.val, 0, 0, 0}}
				switch o.kind {
				case "live":
					srv.Write([]uint64{o.id}, row)
				case "recovery":
					srv.WriteRecovery([]uint64{o.id}, row)
				case "begin":
					srv.BeginRecovery()
				case "retain":
					if n := srv.RetainOwned(0, 2, 1); n != 1 {
						t.Fatalf("RetainOwned shed %d rows, want 1", n)
					}
				}
			}
			if got := srv.Get(kept)[0]; got != tc.want {
				t.Fatalf("row %d holds %v, want %v", kept, got, tc.want)
			}
		})
	}
}

// TestLiveWriteMarkRace races live writers against recovery writers on the
// same ids, in batches both above and below the shard-grouping cutoff:
// every live-written id must end at its last live value, and every other
// id at the recovery value. Run under -race in CI.
func TestLiveWriteMarkRace(t *testing.T) {
	const n, rounds, stale = 512, 40, -1
	srv := NewServer(4, 4, 3, 0.1)
	// live[id] is the last value a live writer stored, 0 for an id no live
	// writer owns (every third one).
	live := make([]float32, n)
	var liveWG, recWG sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < 2; w++ {
		liveWG.Add(1)
		go func(w int) {
			defer liveWG.Done()
			var ids []uint64
			for id := w; id < n; id += 3 {
				ids = append(ids, uint64(id))
			}
			rows := make([][]float32, len(ids))
			for r := 1; r <= rounds; r++ {
				for i, id := range ids {
					rows[i] = []float32{float32(r), float32(id), 0, 0}
					live[id] = float32(r)
				}
				batch := 16 + 96*(r%2) // both sides of groupMinRows
				for lo := 0; lo < len(ids); lo += batch {
					hi := min(lo+batch, len(ids))
					srv.Write(ids[lo:hi], rows[lo:hi])
				}
			}
		}(w)
	}
	ids := make([]uint64, n)
	rows := make([][]float32, n)
	for i := range ids {
		ids[i], rows[i] = uint64(i), []float32{stale, float32(i), 0, 0}
	}
	stream := func(batch int) {
		for lo := 0; lo < n; lo += batch {
			srv.WriteRecovery(ids[lo:lo+batch], rows[lo:lo+batch])
		}
	}
	for _, batch := range []int{8, 128} {
		recWG.Add(1)
		go func() {
			defer recWG.Done()
			for {
				select {
				case <-done:
					return
				default:
					stream(batch)
				}
			}
		}()
	}
	liveWG.Wait()
	close(done)
	recWG.Wait()
	stream(n)
	for id, want := range live {
		if want == 0 {
			want = stale
		}
		if got := srv.Get(uint64(id))[0]; got != want {
			t.Fatalf("id %d holds %v, want %v", id, got, want)
		}
	}
}
