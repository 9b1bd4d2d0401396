package obs

import (
	"runtime"
	"runtime/debug"
	"sync"
)

// Build is the process's build identity, read once from the Go build
// info embedded in the binary (runtime/debug.ReadBuildInfo). Fields the
// toolchain did not stamp (e.g. VCS data in a `go test` binary) are
// empty.
type Build struct {
	GoVersion string `json:"go_version"`
	Path      string `json:"path,omitempty"`
	Version   string `json:"version,omitempty"`
	Revision  string `json:"revision,omitempty"`
	VCSTime   string `json:"vcs_time,omitempty"`
	Modified  bool   `json:"modified,omitempty"`
}

var (
	buildOnce sync.Once
	buildInfo Build
)

// ReadBuild returns the process's build identity.
func ReadBuild() Build {
	buildOnce.Do(func() {
		buildInfo.GoVersion = runtime.Version()
		bi, ok := debug.ReadBuildInfo()
		if !ok {
			return
		}
		buildInfo.Path = bi.Main.Path
		buildInfo.Version = bi.Main.Version
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				buildInfo.Revision = s.Value
			case "vcs.time":
				buildInfo.VCSTime = s.Value
			case "vcs.modified":
				buildInfo.Modified = s.Value == "true"
			}
		}
	})
	return buildInfo
}
