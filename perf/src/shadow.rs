//! The shadow pipeline of the traced pass.
//!
//! The guard is measured from outside, so its inside is reconstructed: for
//! each class run the harness replays, on the same datagrams and through
//! the same public functions, the layer primitives `handle_udp_inner`
//! executes for that class — simulator dispatch, wire decode, cookie
//! verify or generate, limiter admit, classify, the ANS's answer, wire
//! encode — one span per stage, beside the span around the real guard
//! call. What the real call took beyond the sum of the replayed stages is
//! `dnsguard.residual_ns`: table lookups, counters, disabled trace points,
//! message cloning, and whatever else the guard does between primitives.
//!
//! The shadow keeps state of its own wherever the guard does (a limiter fed
//! the same sources at the same pace, a simulator with a do-nothing node),
//! so a stage costs here what it costs there, cache effects aside.

use crate::ring::{Class, Datagram};
use crate::spans::{SpanId, Spans};
use crate::world::{authority, GuardSpec, PRIV, PUB, SINK};
use dnsguard::classify::{AuthorityClassifier, Classification, Classifier};
use dnsguard::config::{GuardConfig, SchemeMode};
use dnsguard::ratelimit::SourceRateLimiter;
use dnswire::cookie_ext;
use dnswire::header::Header;
use dnswire::message::Message;
use dnswire::name::Name;
use dnswire::record::Record;
use dnswire::types::RrType;
use guardhash::cookie::{Cookie, CookieFactory};
use netsim::engine::{Context, CpuConfig, Node, NodeId, Simulator};
use netsim::packet::Packet;
use netsim::time::SimTime;
use server::authoritative::Authority;
use std::hint::black_box;
use std::net::Ipv4Addr;

/// Receives the shadow's dispatches and does nothing.
struct Noop;
impl Node for Noop {
    fn on_packet(&mut self, _ctx: &mut Context<'_>, _pkt: Packet) {}
}

/// A simulator whose only node does nothing: what is left of a delivery
/// when the handler is free (routing, event queue, handler context).
pub struct DispatchSim {
    sim: Simulator,
    node: NodeId,
}

impl Default for DispatchSim {
    fn default() -> Self {
        DispatchSim::new()
    }
}

impl DispatchSim {
    /// Builds it.
    pub fn new() -> DispatchSim {
        let mut sim = Simulator::new(1);
        let node = sim.add_node(SINK, CpuConfig::unbounded(), Noop);
        sim.add_subnet(Ipv4Addr::UNSPECIFIED, 0, node);
        sim.run();
        DispatchSim { sim, node }
    }

    /// Delivers `pkt` to the do-nothing node, paced like the real worlds.
    #[inline]
    pub fn deliver(&mut self, pkt: Packet, gap: SimTime) {
        self.sim.inject(self.node, pkt);
        self.sim.run_for(gap);
    }
}

struct LaneShadow {
    class: Class,
    spec: GuardSpec,
    factory: CookieFactory,
    limiter: SourceRateLimiter,
    ns_ttl: u32,
    cookie_ttl: u32,
    classifier: AuthorityClassifier,
    authority: Authority,
    clock: SimTime,
}

/// The shadow of one workload's lanes.
pub struct Shadow {
    lanes: Vec<LaneShadow>,
    dispatch: DispatchSim,
}

impl Shadow {
    /// A shadow for lanes `(class, guard spec, the guard's cookie factory)`.
    pub fn new(lanes: Vec<(Class, GuardSpec, CookieFactory)>) -> Shadow {
        let lanes = lanes
            .into_iter()
            .map(|(class, spec, factory)| {
                // The limiter the guard consults for this class: the
                // product's defaults, or opened as `guarded_world` opens them.
                let defaults = GuardConfig::new(PUB, PRIV);
                let rate = |default: f64| if spec.open_limiters { 1e12 } else { default };
                let limiter = if class.is_legit() {
                    SourceRateLimiter::per_source_only(rate(defaults.rl2_per_source_rate))
                } else {
                    SourceRateLimiter::new(
                        rate(defaults.rl1_global_rate),
                        rate(defaults.rl1_per_source_rate),
                    )
                };
                LaneShadow {
                    class,
                    spec,
                    factory,
                    limiter,
                    ns_ttl: defaults.fabricated_ns_ttl,
                    cookie_ttl: defaults.cookie_ttl,
                    classifier: AuthorityClassifier::new(authority(spec.zone)),
                    authority: authority(spec.zone),
                    clock: SimTime::ZERO,
                }
            })
            .collect();
        Shadow {
            lanes,
            dispatch: DispatchSim::new(),
        }
    }

    /// Replays the stages `run`'s datagrams go through in lane `lane`'s
    /// guard, one child span of `parent` per stage.
    pub fn replay(
        &mut self,
        lane: usize,
        run: &[Datagram],
        gap: SimTime,
        spans: &mut Spans,
        parent: SpanId,
    ) {
        let Shadow { lanes, dispatch } = self;
        let l = &mut lanes[lane];
        let label = crate::workload::guard::disposition(l.class, l.spec);
        let n = run.len() as u32;
        let mut stage = Stage {
            spans,
            parent,
            label,
        };

        // Client → guard delivery.
        let pkts: Vec<Packet> = run.iter().map(|d| d.pkt.clone()).collect();
        stage.dispatch(dispatch, pkts, gap);

        let msgs: Vec<Message> = stage.run("dnswire.decode", n, || {
            run.iter()
                .map(|d| Message::decode(black_box(&d.pkt.payload)).expect("ring datagrams decode"))
                .collect()
        });

        match l.class {
            Class::Plain => {
                let clock = &mut l.clock;
                let limiter = &mut l.limiter;
                let admitted: Vec<usize> = stage.run("dnsguard.rl_admit", n, || {
                    (0..run.len())
                        .filter(|&i| {
                            *clock += gap;
                            limiter.admit(*clock, run[i].pkt.src.ip)
                        })
                        .collect()
                });
                let m = admitted.len() as u32;
                let replies: Vec<Vec<u8>> = match l.spec.mode {
                    SchemeMode::DnsBased => {
                        let targets: Vec<Name> = stage.run("dnsguard.classify", m, || {
                            admitted
                                .iter()
                                .map(|&i| {
                                    let q = &msgs[i].questions[0].name;
                                    match l.classifier.classify(black_box(q)) {
                                        Classification::Referral { child_zone } => child_zone,
                                        _ => q.clone(),
                                    }
                                })
                                .collect()
                        });
                        let names: Vec<Name> = stage.run("guardhash.generate", m, || {
                            admitted
                                .iter()
                                .zip(&targets)
                                .map(|(&i, target)| {
                                    let cookie = l.factory.generate(black_box(run[i].pkt.src.ip));
                                    let first = target.first_label().unwrap_or_default();
                                    let mut label = Vec::with_capacity(10 + first.len());
                                    label.extend_from_slice(b"PR");
                                    label.extend_from_slice(cookie.ns_label_suffix().as_bytes());
                                    label.extend_from_slice(first);
                                    target.with_first_label(&label).expect("short label")
                                })
                                .collect()
                        });
                        stage.run("dnswire.encode", m, || {
                            admitted
                                .iter()
                                .zip(targets.into_iter().zip(names))
                                .map(|(&i, (target, name))| {
                                    let mut reply = msgs[i].response();
                                    reply.authorities.push(Record::ns(target, name, l.ns_ttl));
                                    reply.encode()
                                })
                                .collect()
                        })
                    }
                    SchemeMode::TcpBased => stage.run("dnswire.encode", m, || {
                        admitted
                            .iter()
                            .map(|&i| msgs[i].truncated_response().encode())
                            .collect()
                    }),
                    SchemeMode::ModifiedOnly => {
                        let cookies: Vec<Cookie> = stage.run("guardhash.generate", m, || {
                            admitted
                                .iter()
                                .map(|&i| l.factory.generate(black_box(run[i].pkt.src.ip)))
                                .collect()
                        });
                        stage.run("dnswire.encode", m, || {
                            admitted
                                .iter()
                                .zip(&cookies)
                                .map(|(&i, cookie)| {
                                    let mut grant = msgs[i].response();
                                    cookie_ext::attach_cookie(&mut grant, cookie.0, l.cookie_ttl);
                                    grant.encode()
                                })
                                .collect()
                        })
                    }
                };
                // Guard → requester delivery.
                let out = admitted
                    .iter()
                    .zip(replies)
                    .map(|(&i, wire)| Packet::udp(run[i].pkt.dst, run[i].pkt.src, wire))
                    .collect();
                stage.dispatch(dispatch, out, gap);
            }

            Class::ExtForged | Class::NsLabelForged | Class::Cookie2Forged => {
                let valid = stage.run("guardhash.verify", n, || verify_all(l, run, &msgs));
                assert_eq!(valid, 0, "a forged cookie verified");
            }

            Class::ExtValid | Class::NsLabelValid | Class::Cookie2Valid => {
                let valid = stage.run("guardhash.verify", n, || verify_all(l, run, &msgs));
                assert_eq!(valid, run.len(), "a minted cookie failed to verify");
                let clock = &mut l.clock;
                let limiter = &mut l.limiter;
                stage.run("dnsguard.rl_admit", n, || {
                    for d in run {
                        *clock += gap;
                        black_box(limiter.admit(*clock, d.pkt.src.ip));
                    }
                });
                // The query as forwarded: cookie stripped (extension), or
                // the original name restored and classified (cookie name).
                let mut queries = msgs;
                let mut cookie_questions = Vec::new();
                if l.class == Class::NsLabelValid {
                    cookie_questions = stage.run("dnsguard.classify", n, || {
                        queries
                            .iter_mut()
                            .map(|q| {
                                let cookie_question = q.questions[0].clone();
                                let first = cookie_question
                                    .name
                                    .first_label()
                                    .expect("cookie label")
                                    .to_vec();
                                let original = cookie_question
                                    .name
                                    .with_first_label(&first[10..])
                                    .expect("restorable");
                                black_box(l.classifier.classify(&original));
                                *q = Message::iterative_query(q.header.id, original, RrType::A);
                                cookie_question
                            })
                            .collect()
                    });
                }
                let forwarded: Vec<Vec<u8>> = stage.run("dnswire.encode", n, || {
                    queries
                        .iter_mut()
                        .map(|q| {
                            cookie_ext::strip_cookie(q);
                            q.encode()
                        })
                        .collect()
                });
                let to_ans = run
                    .iter()
                    .zip(&forwarded)
                    .map(|(d, wire)| Packet::udp(d.pkt.dst, d.pkt.src, wire.clone()))
                    .collect();
                stage.dispatch(dispatch, to_ans, gap);

                // The ANS's share of the round trip.
                let at_ans: Vec<Message> = stage.run("dnswire.decode", n, || {
                    forwarded
                        .iter()
                        .map(|w| Message::decode(black_box(w)).expect("forwarded query"))
                        .collect()
                });
                let answers: Vec<Message> = stage.run("server.answer", n, || {
                    at_ans
                        .iter()
                        .map(|q| l.authority.answer(black_box(q)).0)
                        .collect()
                });
                let answered: Vec<Vec<u8>> = stage.run("dnswire.encode", n, || {
                    answers
                        .iter()
                        .map(|a| a.encode_with_limit(512).expect("small answer").0)
                        .collect()
                });
                let from_ans = run
                    .iter()
                    .zip(&answered)
                    .map(|(d, wire)| Packet::udp(d.pkt.dst, d.pkt.src, wire.clone()))
                    .collect();
                stage.dispatch(dispatch, from_ans, gap);

                // The relay back to the requester.
                let relayed_in: Vec<Message> = stage.run("dnswire.decode", n, || {
                    answered
                        .iter()
                        .map(|w| Message::decode(black_box(w)).expect("ANS answer"))
                        .collect()
                });
                let relayed: Vec<Vec<u8>> = stage.run("dnswire.encode", n, || {
                    relayed_in
                        .into_iter()
                        .enumerate()
                        .map(|(i, mut msg)| {
                            let sent = &run[i].pkt.payload;
                            let txid = u16::from_be_bytes([sent[0], sent[1]]);
                            match cookie_questions.get(i) {
                                // Referral rewritten onto the cookie name.
                                Some(cq) => {
                                    let glue: Vec<Record> = msg
                                        .additionals
                                        .iter()
                                        .chain(msg.answers.iter())
                                        .filter(|r| r.rtype == RrType::A)
                                        .map(|r| Record {
                                            name: cq.name.clone(),
                                            ..r.clone()
                                        })
                                        .collect();
                                    Message {
                                        header: Header {
                                            id: txid,
                                            response: true,
                                            authoritative: true,
                                            ..Header::default()
                                        },
                                        questions: vec![cq.clone()],
                                        answers: glue,
                                        ..Message::default()
                                    }
                                    .encode()
                                }
                                None => {
                                    msg.header.id = txid;
                                    msg.encode_with_limit(512).expect("small answer").0
                                }
                            }
                        })
                        .collect()
                });
                let out = run
                    .iter()
                    .zip(relayed)
                    .map(|(d, wire)| Packet::udp(d.pkt.dst, d.pkt.src, wire))
                    .collect();
                stage.dispatch(dispatch, out, gap);
            }
        }
    }
}

/// Runs the cookie check the guard applies to `l`'s class on every
/// datagram of the run; returns how many verified.
fn verify_all(l: &LaneShadow, run: &[Datagram], msgs: &[Message]) -> usize {
    run.iter()
        .zip(msgs)
        .filter(|(d, msg)| {
            let src = black_box(d.pkt.src.ip);
            match l.class {
                Class::ExtForged | Class::ExtValid => cookie_ext::find_cookie(msg)
                    .is_some_and(|ext| l.factory.verify(src, &Cookie(ext.cookie))),
                Class::NsLabelForged | Class::NsLabelValid => msg.questions[0]
                    .name
                    .first_label_str()
                    .and_then(|label| label.get(2..10))
                    .is_some_and(|hex| l.factory.verify_ns_suffix(src, hex)),
                // The guard's own arithmetic: host number within the /24,
                // skipping the guard's address, then one hash.
                _ => {
                    let pub_off = (u32::from(PUB) & 0xFF) - 1;
                    match (u32::from(d.pkt.dst.ip) & 0xFF).checked_sub(1) {
                        Some(h) if h != pub_off => l.factory.verify_subnet_offset(
                            src,
                            if h > pub_off { h - 1 } else { h },
                            253,
                        ),
                        _ => false,
                    }
                }
            }
        })
        .count()
}

/// Opens one child span per pipeline stage.
struct Stage<'a> {
    spans: &'a mut Spans,
    parent: SpanId,
    label: &'static str,
}

impl Stage<'_> {
    fn run<R>(&mut self, name: &'static str, items: u32, f: impl FnOnce() -> R) -> R {
        self.spans.timed(name, self.label, items, self.parent, f)
    }

    fn dispatch(&mut self, sim: &mut DispatchSim, pkts: Vec<Packet>, gap: SimTime) {
        let items = pkts.len() as u32;
        self.run("netsim.dispatch", items, || {
            for pkt in pkts {
                sim.deliver(pkt, gap);
            }
        });
    }
}
