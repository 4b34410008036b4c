package core

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"github.com/vchain-go/vchain/internal/chain"
)

// crashHelperEnv names the env var that flips TestCrashHelperProcess
// from a no-op into the miner child process.
const crashHelperEnv = "VCHAIN_CRASH_DIR"

// TestCrashHelperProcess is not a test: re-executed by
// TestCrashRecoverySmoke with VCHAIN_CRASH_DIR set, it mines blocks
// into the store directory forever (printing "mined N" after each
// durable commit) until the parent SIGKILLs it mid-flight.
func TestCrashHelperProcess(t *testing.T) {
	dir := os.Getenv(crashHelperEnv)
	if dir == "" {
		t.Skip("helper process for TestCrashRecoverySmoke")
	}
	acc := testAccs(t)["acc2"]
	b := &Builder{Acc: acc, Mode: ModeBoth, SkipSize: 2, Width: testWidth}
	node, err := openLogNode(b, dir)
	if err != nil {
		fmt.Println("helper: open:", err)
		os.Exit(1)
	}
	for i := node.Height(); ; i++ {
		if _, err := node.MineBlock(carObjects(uint64(i*10)), int64(1000+i)); err != nil {
			fmt.Println("helper: mine:", err)
			os.Exit(1)
		}
		fmt.Printf("mined %d\n", i+1)
	}
}

// TestCrashRecoverySmoke is the end-to-end crash drill: a child
// process mines blocks into a store directory and is SIGKILLed without
// warning; reopening the directory must recover every acknowledged
// block and serve a verifiable query. CI runs this as its persistence
// smoke step.
func TestCrashRecoverySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a child process")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run", "TestCrashHelperProcess$", "-test.v")
	cmd.Env = append(os.Environ(), crashHelperEnv+"="+dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// Watch the child's acknowledgements; once enough blocks are
	// durably committed, kill it cold (quite possibly mid-append).
	const wantBlocks = 3
	acked := 0
	deadline := time.After(120 * time.Second)
	lines := make(chan string)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
scan:
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("helper exited early after %d blocks", acked)
			}
			if strings.HasPrefix(line, "mined ") {
				acked++
				if acked >= wantBlocks {
					break scan
				}
			}
			if strings.HasPrefix(line, "helper:") {
				t.Fatalf("helper failed: %s", line)
			}
		case <-deadline:
			t.Fatalf("helper mined only %d/%d blocks in time", acked, wantBlocks)
		}
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
	go func() {
		for range lines {
		}
	}()

	// Reopen the store the dead process left behind. Every
	// acknowledged block must be there (fsync-on-commit); a torn tail
	// beyond them is allowed and truncated.
	acc := testAccs(t)["acc2"]
	b := &Builder{Acc: acc, Mode: ModeBoth, SkipSize: 2, Width: testWidth}
	node, err := openLogNode(b, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if node.Height() < wantBlocks {
		t.Fatalf("recovered height %d, want at least %d acknowledged blocks", node.Height(), wantBlocks)
	}

	// The survivor serves a verifiable query over the recovered chain.
	light := chain.NewLightStore(0)
	if err := light.Sync(node.Store.Headers()); err != nil {
		t.Fatal(err)
	}
	q := sedanBenzQuery(0, wantBlocks-1)
	vo, err := node.SP(false).TimeWindowQuery(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	results, err := (&Verifier{Acc: acc, Light: light}).VerifyTimeWindow(q, vo)
	if err != nil {
		t.Fatalf("post-crash VO rejected: %v", err)
	}
	if len(results) != wantBlocks {
		t.Fatalf("post-crash results %d, want %d", len(results), wantBlocks)
	}
	// And mining picks up where the dead process stopped.
	h := node.Height()
	if _, err := node.MineBlock(carObjects(uint64(h*10)), int64(1000+h)); err != nil {
		t.Fatal(err)
	}
}
