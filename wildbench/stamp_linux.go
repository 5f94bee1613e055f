package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"syscall"
	"time"
)

// stampReader reads a TCP connection with recvmsg and keeps the
// kernel's receive timestamp (SO_TIMESTAMPNS) of the latest data read.
// The serve clients end each round trip at that stamp, so the load
// generator's own wake-up on the CPUs it shares with the service is not
// charged to the service; a client on another host would not pay it.
type stampReader struct {
	rc  syscall.RawConn
	oob []byte
	// at is when the kernel received the latest data read; zero until
	// a read returns a stamp.
	at time.Time
}

func newStampReader(conn net.Conn) (*stampReader, error) {
	tc, ok := conn.(*net.TCPConn)
	if !ok {
		return nil, errors.New("receive timestamps need a TCP connection")
	}
	rc, err := tc.SyscallConn()
	if err != nil {
		return nil, err
	}
	var serr error
	if err := rc.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_TIMESTAMPNS, 1)
	}); err != nil {
		return nil, err
	}
	if serr != nil {
		return nil, fmt.Errorf("SO_TIMESTAMPNS: %w", serr)
	}
	return &stampReader{rc: rc, oob: make([]byte, syscall.CmsgSpace(16))}, nil
}

// Read implements io.Reader.
func (s *stampReader) Read(p []byte) (int, error) {
	var n, oobn int
	var err error
	if rerr := s.rc.Read(func(fd uintptr) bool {
		for {
			n, oobn, _, _, err = syscall.Recvmsg(int(fd), p, s.oob, 0)
			if err != syscall.EINTR {
				return err != syscall.EAGAIN
			}
		}
	}); rerr != nil {
		return 0, rerr
	}
	if err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, io.EOF
	}
	msgs, err := syscall.ParseSocketControlMessage(s.oob[:oobn])
	if err != nil {
		return 0, err
	}
	for _, m := range msgs {
		if m.Header.Level == syscall.SOL_SOCKET && m.Header.Type == syscall.SCM_TIMESTAMPNS && len(m.Data) >= 16 {
			sec := int64(binary.NativeEndian.Uint64(m.Data[0:8]))
			nsec := int64(binary.NativeEndian.Uint64(m.Data[8:16]))
			s.at = time.Unix(sec, nsec)
		}
	}
	return n, nil
}
