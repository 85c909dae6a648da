//! A frame-aware fault-injection TCP proxy, shared by the serve chaos
//! tests and the fuzzer's resume path.
//!
//! The proxy sits between a real client and a real server and injects
//! transport faults deterministically: each accepted connection
//! consumes the next [`FaultPlan`], whose entries apply to
//! server→client reply frames *in order* (the proxy parses the
//! protocol's length prefix, so a fault hits an exact frame, not a
//! random byte offset). Plans exhausted — and connections beyond the
//! planned ones — forward everything untouched.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

/// What to do with one server→client reply frame.
#[derive(Debug, Clone)]
pub enum ReplyFault {
    /// Pass the frame through untouched.
    Forward,
    /// Hold the frame for the given duration, then deliver it — the
    /// late-reply scenario behind the timeout-desync bug.
    Delay(Duration),
    /// Deliver only the first `n` bytes of the framed reply (length
    /// prefix included), then sever the connection mid-frame.
    Truncate(usize),
    /// Swallow the reply entirely and sever the connection.
    Drop,
}

/// Reply faults for one proxied connection, applied in frame order;
/// replies past the end of the list are forwarded.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Per-reply faults, in server-reply order.
    pub replies: Vec<ReplyFault>,
}

impl FaultPlan {
    /// Forwards `clean` replies, then applies `fault`.
    pub fn after(clean: usize, fault: ReplyFault) -> FaultPlan {
        let mut replies = vec![ReplyFault::Forward; clean];
        replies.push(fault);
        FaultPlan { replies }
    }
}

/// A running fault-injection proxy; dropping it stops the accept
/// loop, which blocks in `accept` until a connect to the proxy's own
/// listener wakes it (live pipes die when their sockets close).
pub struct FaultProxy {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<thread::JoinHandle<()>>,
}

impl FaultProxy {
    /// Starts a proxy on an ephemeral loopback port forwarding to
    /// `upstream`. The `i`-th accepted connection runs `plans[i]`.
    pub fn start(upstream: SocketAddr, plans: Vec<FaultPlan>) -> FaultProxy {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
        let addr = listener.local_addr().expect("proxy addr");
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let plans = Mutex::new(VecDeque::from(plans));
        let accept = thread::spawn(move || loop {
            let accepted = listener.accept();
            if flag.load(Ordering::SeqCst) {
                return;
            }
            let Ok((client, _)) = accepted else {
                thread::sleep(Duration::from_millis(5));
                continue;
            };
            let plan = plans
                .lock()
                .expect("plans lock")
                .pop_front()
                .unwrap_or_default();
            let Ok(up) = TcpStream::connect(upstream) else {
                let _ = client.shutdown(Shutdown::Both);
                continue;
            };
            spawn_pipes(client, up, plan);
        });
        FaultProxy {
            addr,
            shutdown,
            accept: Some(accept),
        }
    }

    /// The address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept.take() {
            // Wake the blocked accept; it sees the flag and returns.
            if TcpStream::connect(self.addr).is_ok() {
                let _ = handle.join();
            }
        }
    }
}

fn sever(a: &TcpStream, b: &TcpStream) {
    let _ = a.shutdown(Shutdown::Both);
    let _ = b.shutdown(Shutdown::Both);
}

fn spawn_pipes(client: TcpStream, upstream: TcpStream, plan: FaultPlan) {
    // Client → server: a dumb byte pipe; faults only target replies.
    {
        let (mut from, to) = (
            client.try_clone().expect("clone client"),
            upstream.try_clone().expect("clone upstream"),
        );
        thread::spawn(move || {
            let mut to_w = to.try_clone().expect("clone upstream");
            let mut buf = [0u8; 4096];
            loop {
                match from.read(&mut buf) {
                    Ok(0) | Err(_) => {
                        sever(&from, &to);
                        return;
                    }
                    Ok(n) => {
                        if to_w.write_all(&buf[..n]).is_err() {
                            sever(&from, &to);
                            return;
                        }
                    }
                }
            }
        });
    }
    // Server → client: frame-aware, applying the plan reply by reply.
    thread::spawn(move || {
        let mut up_r = upstream.try_clone().expect("clone upstream");
        let mut client_w = client.try_clone().expect("clone client");
        let mut reply_index = 0usize;
        loop {
            // One protocol frame: u32-BE length prefix + payload.
            let mut prefix = [0u8; 4];
            if up_r.read_exact(&mut prefix).is_err() {
                sever(&client, &upstream);
                return;
            }
            let len = u32::from_be_bytes(prefix) as usize;
            let mut framed = Vec::with_capacity(4 + len);
            framed.extend_from_slice(&prefix);
            framed.resize(4 + len, 0);
            if up_r.read_exact(&mut framed[4..]).is_err() {
                sever(&client, &upstream);
                return;
            }
            let fault = plan
                .replies
                .get(reply_index)
                .cloned()
                .unwrap_or(ReplyFault::Forward);
            reply_index += 1;
            match fault {
                ReplyFault::Forward => {
                    if client_w.write_all(&framed).is_err() {
                        sever(&client, &upstream);
                        return;
                    }
                }
                ReplyFault::Delay(d) => {
                    thread::sleep(d);
                    if client_w.write_all(&framed).is_err() {
                        sever(&client, &upstream);
                        return;
                    }
                }
                ReplyFault::Truncate(n) => {
                    let cut = n.min(framed.len());
                    let _ = client_w.write_all(&framed[..cut]);
                    let _ = client_w.flush();
                    sever(&client, &upstream);
                    return;
                }
                ReplyFault::Drop => {
                    sever(&client, &upstream);
                    return;
                }
            }
        }
    });
}
