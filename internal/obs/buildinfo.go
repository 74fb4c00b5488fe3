package obs

import (
	"runtime"
	"runtime/debug"
)

// RegisterBuildInfo exports the conventional `ccp_build_info` gauge: a
// constant-1 series whose labels carry the build's identity — module
// version (or VCS revision when built from a checkout), Go toolchain, and
// the process's role in the cluster ("site", "coordinator", "ctl",
// "bench"). Every binary registers it so `ccpctl doctor` and any
// scraper can tell what is actually running where. Nil-safe.
func RegisterBuildInfo(r *Registry, role string) {
	if r == nil {
		return
	}
	version := "devel"
	if bi, ok := debug.ReadBuildInfo(); ok {
		if v := bi.Main.Version; v != "" && v != "(devel)" {
			version = v
		} else {
			for _, s := range bi.Settings {
				if s.Key == "vcs.revision" && len(s.Value) >= 12 {
					version = s.Value[:12]
				}
			}
		}
	}
	r.Gauge("ccp_build_info",
		"Constant 1; labels carry the build version, Go version, and process role.",
		Label{Key: "version", Value: version},
		Label{Key: "go_version", Value: runtime.Version()},
		Label{Key: "role", Value: role},
	).Set(1)
}
