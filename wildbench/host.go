package main

import (
	"runtime"
	"runtime/debug"
)

// hostInfo is the host block printed with every result: a throughput
// number means little without the machine it ran on.
type hostInfo struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	// Commit is the git revision stamped into the binary, "unknown"
	// when it was built outside a git checkout.
	Commit string `json:"commit"`
	// Modified marks a binary built from a tree with uncommitted
	// changes, whose Commit names only the revision they sit on.
	Modified bool `json:"modified"`
	// Shards and Conns are the sweep shards and client connections the
	// workload runs at once; Oversubscribed marks a run where together
	// they exceed NumCPU, so its figures include CPU contention.
	Shards         int  `json:"shards"`
	Conns          int  `json:"conns"`
	Oversubscribed bool `json:"oversubscribed"`
}

func host(shards, conns int) hostInfo {
	h := hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     "unknown",
		Shards:     shards,
		Conns:      conns,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				h.Modified = s.Value == "true"
			}
		}
	}
	h.Oversubscribed = shards+conns > h.NumCPU
	return h
}
