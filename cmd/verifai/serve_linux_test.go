package main

import (
	"bytes"
	"errors"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"repro/internal/lakeio"
	"repro/internal/workload"
)

// TestMain lets a test re-execute this binary as the command itself:
// `verifai.test serve ...` runs serve.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestServeLeavesNoProcess runs `verifai serve -lake L -data-dir D` in a
// process group of its own, waits for /v1/healthz to answer 200, SIGKILLs
// it, reaps it, and finds the group empty: serve starts goroutines and
// never a process, so a supervisor that kills its pid stops everything it
// started.
func TestServeLeavesNoProcess(t *testing.T) {
	cfg := workload.DefaultConfig()
	cfg.NumTables, cfg.NumTexts = 50, 10
	corpus, err := workload.GenerateLake(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lake := filepath.Join(t.TempDir(), "lake")
	err = lakeio.Save(corpus.Lake, lake)
	corpus.Lake.Close()
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	var logs bytes.Buffer
	cmd := exec.Command(os.Args[0], "serve", "-lake", lake, "-data-dir", filepath.Join(t.TempDir(), "data"), "-addr", addr)
	cmd.Stdout, cmd.Stderr = &logs, &logs
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	pgid := cmd.Process.Pid
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	defer func() {
		if err := syscall.Kill(-pgid, 0); !errors.Is(err, syscall.ESRCH) {
			t.Errorf("process group %d still has members after serve was killed and reaped (kill 0: %v)", pgid, err)
			_ = syscall.Kill(-pgid, syscall.SIGKILL)
		}
	}()

	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := client.Get("http://" + addr + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		select {
		case err := <-exited:
			t.Fatalf("serve exited before it was healthy (%v):\n%s", err, logs.String())
		case <-time.After(50 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			_ = syscall.Kill(-pgid, syscall.SIGKILL)
			<-exited
			t.Fatalf("serve not healthy after 60 s:\n%s", logs.String())
		}
	}
	if err := syscall.Kill(cmd.Process.Pid, syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	<-exited
}
