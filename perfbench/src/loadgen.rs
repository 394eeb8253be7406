//! Load generators over `ServeLoop::submit`: an open loop at a fixed rate
//! and a closed loop of a fixed number of callers.
//!
//! The open loop uses two threads of the calling process: a submitter that
//! sends each request when it is due, and the calling thread, which
//! collects tickets. Latency runs from the request's due time to the moment
//! the collector sees its reply, so a stalled submitter or loop is charged
//! to every request queued behind the stall.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use qaoa_gnn::serve::ServeRequest;
use qaoa_gnn::serve_loop::{Completed, ServeLoop, Ticket};

use crate::trace::Tracer;

/// How long the collector blocks on one ticket before sweeping the others
/// for replies that arrived meanwhile.
const POLL: Duration = Duration::from_micros(250);
/// A reply later than this after the last due time counts as unanswered.
const GIVE_UP: Duration = Duration::from_secs(60);

/// A submitted request awaiting its reply.
struct InFlight {
    meta: Meta,
    ticket: Ticket,
}

#[derive(Clone, Copy)]
struct Meta {
    i: usize,
    cost: usize,
    lag_ms: f64,
    span: u64,
}

/// One request's fate.
pub struct Reply {
    /// Due time to observed reply.
    pub latency_ms: f64,
    /// Submission time minus due time.
    pub lag_ms: f64,
    /// See [`is_failure`].
    pub failed: bool,
    /// `None` when no reply arrived before the give-up deadline.
    pub completed: Option<Completed>,
}

/// A request counts as failed when it was not answered, was refused, was
/// shed, or was answered model-free by an open circuit breaker.
pub fn is_failure(completed: Option<&Completed>) -> bool {
    match completed.map(|c| &c.response.result) {
        Some(Ok(o)) => o.was_shed() || o.was_breaker_skipped(),
        _ => true,
    }
}

/// Sends `count` requests from `requests` at `rate` per second, each made
/// just before it is due, and waits for every reply. Request `i` gets trace
/// id `i`.
///
/// Each request comes with its expected cost (any monotone proxy, such as
/// the node count). The collector blocks on the cheapest request in flight,
/// which is usually the next to finish, so most replies are seen the moment
/// they arrive; the rest are found by the sweep that follows each wake-up,
/// at most [`POLL`] late.
pub fn open_loop(
    serve: &ServeLoop,
    rate: f64,
    count: usize,
    requests: impl Iterator<Item = (ServeRequest, usize)> + Send,
    tracer: Option<&Tracer>,
) -> Vec<Reply> {
    let total = count;
    let start = Instant::now() + Duration::from_millis(2);
    let due = move |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    let last_due = due(total.saturating_sub(1));
    let (tx, rx) = mpsc::channel::<InFlight>();
    let mut replies: Vec<Option<Reply>> = (0..total).map(|_| None).collect();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for (i, (request, cost)) in requests.take(total).enumerate() {
                let when = due(i);
                let now = Instant::now();
                if when > now {
                    std::thread::sleep(when - now);
                }
                let sent = Instant::now();
                let lag_ms = (sent - when).as_secs_f64() * 1e3;
                let (ticket, span) = match tracer {
                    Some(t) => {
                        let request_span = t.open().0;
                        let ticket = t.span(
                            "core.serve_loop::submit",
                            Some(request_span),
                            Some(i as u64),
                            |_| serve.submit(request),
                        );
                        (ticket, request_span)
                    }
                    None => (serve.submit(request), 0),
                };
                let meta = Meta {
                    i,
                    cost,
                    lag_ms,
                    span,
                };
                if tx.send(InFlight { meta, ticket }).is_err() {
                    return;
                }
            }
        });

        let mut outstanding: Vec<InFlight> = Vec::new();
        let mut done = 0usize;
        let mut submitter_open = true;
        let mut finish = |m: Meta, completed: Option<Completed>| {
            let seen = Instant::now();
            let when = due(m.i);
            if let Some(t) = tracer {
                t.close((m.span, when), "loadgen::request", None, Some(m.i as u64));
            }
            replies[m.i] = Some(Reply {
                latency_ms: seen.saturating_duration_since(when).as_secs_f64() * 1e3,
                lag_ms: m.lag_ms,
                failed: is_failure(completed.as_ref()),
                completed,
            });
        };
        while done < total {
            // Take newly submitted tickets; block only when nothing is in flight.
            loop {
                let next = if outstanding.is_empty() && submitter_open {
                    rx.recv().map_err(|_| mpsc::TryRecvError::Disconnected)
                } else {
                    rx.try_recv()
                };
                match next {
                    Ok(item) => outstanding.push(item),
                    Err(mpsc::TryRecvError::Empty) => break,
                    Err(mpsc::TryRecvError::Disconnected) => {
                        submitter_open = false;
                        break;
                    }
                }
            }
            let Some(cheapest) = (0..outstanding.len())
                .min_by_key(|&k| (outstanding[k].meta.cost, outstanding[k].meta.i))
            else {
                if !submitter_open {
                    break;
                }
                continue;
            };
            let InFlight { meta, ticket } = outstanding.swap_remove(cheapest);
            match ticket.wait_timeout(POLL) {
                Ok(c) => {
                    finish(meta, Some(c));
                    done += 1;
                }
                Err(_) if Instant::now() > last_due + GIVE_UP => {
                    finish(meta, None);
                    done += 1;
                }
                Err(timeout) => outstanding.push(InFlight {
                    meta,
                    ticket: timeout.ticket,
                }),
            }
            // Sweep the rest for replies that arrived meanwhile.
            for InFlight { meta, ticket } in std::mem::take(&mut outstanding) {
                match ticket.wait_timeout(Duration::ZERO) {
                    Ok(c) => {
                        finish(meta, Some(c));
                        done += 1;
                    }
                    Err(timeout) => outstanding.push(InFlight {
                        meta,
                        ticket: timeout.ticket,
                    }),
                }
            }
        }
    });
    replies
        .into_iter()
        .map(|r| r.expect("every request has a reply record"))
        .collect()
}

/// Sends `requests` from `callers` clients that each send their next
/// request when the reply to the last one arrives, handing each reply to
/// `on_reply` in order. Returns the wall time of the batch and every
/// request's latency in ms, from its submission to the moment its reply
/// was seen (infinite for a failed request, see [`is_failure`]). Replies
/// are collected in the order the requests were sent.
pub fn closed_loop(
    serve: &ServeLoop,
    requests: impl Iterator<Item = ServeRequest>,
    callers: usize,
    mut on_reply: impl FnMut(Completed),
) -> (Duration, Vec<f64>) {
    let start = Instant::now();
    let mut latencies = Vec::new();
    let mut in_flight: VecDeque<(Instant, Ticket)> = VecDeque::with_capacity(callers);
    let mut settle = |(sent, ticket): (Instant, Ticket)| {
        let completed = ticket.wait();
        let ms = sent.elapsed().as_secs_f64() * 1e3;
        latencies.push(if is_failure(Some(&completed)) {
            f64::INFINITY
        } else {
            ms
        });
        on_reply(completed);
    };
    for request in requests {
        if in_flight.len() == callers {
            settle(in_flight.pop_front().expect("every caller is waiting"));
        }
        in_flight.push_back((Instant::now(), serve.submit(request)));
    }
    in_flight.into_iter().for_each(&mut settle);
    (start.elapsed(), latencies)
}
