// Package buildinfo reports what binary is running: module version,
// Go toolchain, and VCS revision, read from the build metadata the go
// tool embeds (debug.ReadBuildInfo). It backs the daemons' -version
// flags and the ringsim_build_info metric, so a scrape or a bug
// report always says exactly which build produced it.
package buildinfo

import (
	"fmt"
	"runtime"
	"runtime/debug"
)

// Info is the identity of the running binary.
type Info struct {
	Version   string `json:"version"`            // module version, "devel" for local builds
	GoVersion string `json:"go_version"`         // toolchain that built the binary
	Revision  string `json:"revision,omitempty"` // VCS commit hash, if embedded
	Modified  bool   `json:"modified,omitempty"` // true when built from a dirty tree
}

// Read returns the running binary's build identity. It never fails:
// binaries built without module or VCS metadata (go test, bare go
// build outside a checkout) degrade to "devel" and an empty revision.
func Read() Info {
	info := Info{Version: "devel", GoVersion: runtime.Version()}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return info
	}
	if v := bi.Main.Version; v != "" && v != "(devel)" {
		info.Version = v
	}
	if bi.GoVersion != "" {
		info.GoVersion = bi.GoVersion
	}
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			info.Revision = s.Value
		case "vcs.modified":
			info.Modified = s.Value == "true"
		}
	}
	return info
}

// String renders the one-line -version output for a component.
func (i Info) String() string {
	rev := i.Revision
	if rev == "" {
		rev = "unknown"
	} else {
		if len(rev) > 12 {
			rev = rev[:12]
		}
		if i.Modified {
			rev += "+dirty"
		}
	}
	return fmt.Sprintf("%s (%s, rev %s)", i.Version, i.GoVersion, rev)
}
