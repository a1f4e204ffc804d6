package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// hostFacts go with every result, so each number names the machine
// and the code it was measured on.
type hostFacts struct {
	NumCPU     int `json:"nproc"`
	GOMAXPROCS int `json:"gomaxprocs"`
	// ChildProcs is the GOMAXPROCS of the measured cafa children.
	ChildProcs int    `json:"child_gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	// Commit is read from .git when the checkout has one; Source is a
	// SHA-256 over the Go sources and module files, which identifies
	// the code either way.
	Commit string `json:"commit"`
	Source string `json:"source_sha256"`
}

func readHost(root string) hostFacts {
	return hostFacts{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		ChildProcs: childProcs,
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Commit:     gitCommit(root),
		Source:     sourceDigest(root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitCommit resolves .git/HEAD without running git, or returns
// "unknown" when the checkout is not a repository.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// sourceDigest hashes the path and content of every .go, go.mod and
// go.sum file under root, in path order, skipping build output and
// version-control state.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if n := d.Name(); d.Type().IsRegular() && (strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		h.Write([]byte(rel + "\x00"))
		h.Write(raw)
	}
	return hex.EncodeToString(h.Sum(nil))
}
