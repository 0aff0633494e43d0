package segment

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"

	"sepdl/internal/leakcheck"
)

// Hooks intercept the file writes and fsyncs of the durable store: the
// write-ahead log's appends (internal/wal) and every checkpoint file
// publish writes. internal/faultinject's Disk plugs in here to fail,
// tear, corrupt or crash any of them. The zero value intercepts nothing.
type Hooks struct {
	// BeforeWrite receives the file name, the absolute offset and the
	// bytes about to be written, and returns the bytes to actually persist
	// plus the error the write reports. Returned bytes are persisted even
	// when the error is non-nil (a torn write).
	BeforeWrite func(name string, off int64, p []byte) ([]byte, error)
	// BeforeSync receives the name of the file or directory about to be
	// fsynced; a non-nil error fails the fsync.
	BeforeSync func(name string) error
}

// WriteAt writes p at off in f through BeforeWrite.
func (h Hooks) WriteAt(f *os.File, p []byte, off int64) error {
	var herr error
	if h.BeforeWrite != nil {
		p, herr = h.BeforeWrite(f.Name(), off, p)
	}
	if len(p) > 0 {
		if _, err := f.WriteAt(p, off); err != nil {
			return err
		}
	}
	return herr
}

// Sync fsyncs f through BeforeSync.
func (h Hooks) Sync(f *os.File) error {
	if h.BeforeSync != nil {
		if err := h.BeforeSync(f.Name()); err != nil {
			return err
		}
	}
	return f.Sync()
}

// SyncDir fsyncs dir through BeforeSync, making the creates and renames
// inside it durable.
func (h Hooks) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	tok := leakcheck.OpenResource("dir " + dir)
	defer leakcheck.CloseResource(tok)
	defer d.Close()
	return h.Sync(d)
}

// publish is the one way a checkpoint file reaches its final name. fill
// streams the content through a 64 KiB buffer into the *.tmp sibling of
// path, each flushed chunk through h.BeforeWrite; then the tmp file is
// fsynced, renamed over path, and the directory fsynced, both fsyncs
// through h.BeforeSync. A crash at any point leaves either no file or a
// complete one under path. On error the tmp file is removed.
func publish(path string, h Hooks, fill func(w *segWriter) error) error {
	tmp := path + ".tmp"
	if err := writeTmp(tmp, h, fill); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("segment: rename %s: %w", tmp, err)
	}
	if err := h.SyncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("segment: sync dir of %s: %w", path, err)
	}
	return nil
}

// writeTmp creates tmp, streams fill into it, then fsyncs and closes it.
func writeTmp(tmp string, h Hooks, fill func(w *segWriter) error) error {
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("segment: create %s: %w", tmp, err)
	}
	tok := leakcheck.OpenResource("segfile " + tmp)
	defer leakcheck.CloseResource(tok)
	w := &segWriter{w: bufio.NewWriterSize(&hookedFile{f: f, h: h}, 1<<16)}
	err = fill(w)
	if err == nil {
		err = w.err
	}
	if err == nil {
		err = w.w.Flush()
	}
	if err == nil {
		err = h.Sync(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("segment: write %s: %w", tmp, err)
	}
	return nil
}

// hookedFile is the io.Writer under publish's buffer: each chunk lands at
// the next offset of the tmp file through the write hook.
type hookedFile struct {
	f   *os.File
	h   Hooks
	off int64
}

func (hf *hookedFile) Write(p []byte) (int, error) {
	if err := hf.h.WriteAt(hf.f, p, hf.off); err != nil {
		return 0, err
	}
	hf.off += int64(len(p))
	return len(p), nil
}

// segWriter tracks the absolute file offset and the first write error.
type segWriter struct {
	w   *bufio.Writer
	off int64
	err error
}

func (w *segWriter) write(b []byte) {
	if w.err != nil {
		return
	}
	n, err := w.w.Write(b)
	w.off += int64(n)
	w.err = err
}
