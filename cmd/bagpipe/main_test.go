package main

import (
	"context"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the bagpipe command: with
// BAGPIPE_RUN_MAIN=1 in its environment it runs main on its own arguments
// instead of the tests, so a test can invoke the CLI as a child process.
func TestMain(m *testing.M) {
	if os.Getenv("BAGPIPE_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// stackDump matches a goroutine header of a crash trace ("goroutine 1
// [running]:"); the flag usage text mentions goroutines in prose only.
var stackDump = regexp.MustCompile(`goroutine \d+ \[`)

// TestBadFlagsFailCleanly: every invalid invocation exits non-zero with an
// error on its first line of output, and never with a panic or a goroutine
// dump. The short run flags bound the time a case takes if its check is
// missing and the command trains instead.
func TestBadFlagsFailCleanly(t *testing.T) {
	cases := [][]string{
		{"-shards", "0"},
		{"-shards", "-2"},
		{"-emb-dim", "-3"},
		{"-scale", "-5"},
		{"-servers", "0"},
		{"-infer-clients", "0", "-serve-infer"},
		{"-spawn=false"},
	}
	for _, args := range cases {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			cmd := exec.CommandContext(ctx, os.Args[0], append(args, "-batches", "2", "-batch-size", "16")...)
			cmd.Env = append(os.Environ(), "BAGPIPE_RUN_MAIN=1")
			out, err := cmd.CombinedOutput()
			text := string(out)
			if err == nil {
				t.Fatalf("bagpipe %v exited 0; output:\n%s", args, text)
			}
			if strings.Contains(text, "panic:") || stackDump.MatchString(text) {
				t.Fatalf("bagpipe %v crashed instead of reporting an error:\n%s", args, text)
			}
			first, _, _ := strings.Cut(text, "\n")
			if !strings.HasPrefix(first, "bagpipe: ") && !strings.HasPrefix(first, "flag provided but not defined") {
				t.Fatalf("bagpipe %v: first line %q is not an error; output:\n%s", args, first, text)
			}
		})
	}
}
