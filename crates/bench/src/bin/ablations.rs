//! Design-choice ablations (DESIGN.md §5): sensitivity of the headline
//! comparison to the knobs the paper's design fixes.
//!
//! 1. **Handler path length** — Typhoon's case rests on short user-level
//!    handlers (14/30/20 instructions). How fast does Typhoon/Stache
//!    degrade if handlers were 2× or 4× longer (or gain if 0.5×)?
//! 2. **Network latency** — the paper notes 11 cycles is optimistic and
//!    that a slower network would *favor Typhoon* by shrinking its
//!    relative overhead. Sweep 11/22/44.
//! 3. **Stache memory budget** — Stache uses "only as much of local
//!    memory as an application chooses": sweep the stache page budget to
//!    show replacement cost appearing as the budget shrinks.
//! 4. **Dedicated NP vs. software Tempest** — run the same protocol with
//!    handlers on the NP vs. interrupting the primary CPU (the paper's
//!    "native CM-5" direction, later Blizzard): the cost of *not*
//!    building the hardware.
//! 5. **DirNNB page placement** — round-robin (paper baseline) vs.
//!    owner-ideal (first-touch quality), quantifying how much of
//!    Stache's Figure 3 win is automatic locality.
//! 6. **Custom protocols beyond EM3D** — Ocean with delayed-update
//!    boundary pushes vs. transparent Stache: Section 4's idea applied
//!    to a second application.
//! 7. **Network contention** — the paper explicitly does not model
//!    contention; a per-packet injection-port occupancy shows which way
//!    the comparison moves when senders serialize.
//!
//! Usage: `ablations [--scale N] [--nodes N] [--jobs N] [--repeat N]
//! [--json PATH] [--full]` (default scale 16). Each ablation's
//! independent runs fan out across `--jobs` threads; the tables are
//! byte-identical for any `jobs` or `repeat` value (`--repeat N` takes
//! min-of-N wall timings for stable throughput records).

use tt_base::table::Table;
use tt_bench::cli;
use tt_bench::json::PointRecord;
use tt_base::SystemConfig;
use tt_bench::{build_app, measure, min_of_runs, par, run_system, sync_for, System};
use tt_apps::{AppId, DataSet};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = format!("ablations {}", cli::SHARED_FLAGS);
    let cli = cli::or_exit(tt_bench::parse_cli(&args, 16), &usage);
    let (scale, nodes, jobs, repeat) = (cli.scale, cli.nodes, cli.jobs, cli.repeat);
    let app = AppId::Em3d;
    let set = DataSet::Small;
    let mut records: Vec<PointRecord> = Vec::new();
    // Min-of-`repeat` run of `app` on its `set` data set at `scale`.
    let run = |system: System, cfg: &SystemConfig, app: AppId, set: DataSet, scale: usize| {
        min_of_runs(repeat, || {
            run_system(system, cfg, build_app(app, set, scale, nodes, sync_for(app, system)))
        })
    };

    println!("ABLATION 1. Stache handler path length (EM3D small, {nodes} nodes, 1/{scale}).\n");
    let mut t = Table::new(vec!["handler cost x", "Typhoon/Stache vs DirNNB"]);
    let base_cfg = {
        let mut c = cli.config();
        c.cpu.cache_bytes = 4 * 1024;
        c
    };
    let factors = [0.5, 1.0, 2.0, 4.0];
    // Task 0 is the shared DirNNB comparator; tasks 1.. sweep the factor.
    let outs = par::run_indexed(jobs, factors.len() + 1, |i| {
        if i == 0 {
            run(System::Dirnnb, &base_cfg, app, set, scale)
        } else {
            let mut cfg = base_cfg.clone();
            cfg.typhoon.handler_cost_scale = factors[i - 1];
            run(System::TyphoonStache, &cfg, app, set, scale)
        }
    });
    let dirnnb = outs[0].cycles;
    records.push(PointRecord::new("ablation1 baseline".into(), "DirNNB", &outs[0]));
    for (scale_factor, out) in factors.iter().zip(&outs[1..]) {
        t.row(vec![
            format!("{scale_factor:.1}"),
            format!("{:.3}", out.cycles.as_f64() / dirnnb.as_f64()),
        ]);
        records.push(PointRecord::new(
            format!("ablation1 handler x{scale_factor:.1}"),
            "Typhoon/Stache",
            out,
        ));
    }
    println!("{t}");

    println!("ABLATION 2. Network latency (EM3D small, 4K caches).\n");
    let mut t = Table::new(vec!["latency (cycles)", "Typhoon/Stache", "DirNNB", "relative"]);
    let latencies = [11u64, 22, 44];
    // Two tasks per row: even index Typhoon/Stache, odd index DirNNB.
    let outs = par::run_indexed(jobs, latencies.len() * 2, |i| {
        let mut cfg = base_cfg.clone();
        cfg.timing.network_latency = tt_base::Cycles::new(latencies[i / 2]);
        let system = if i % 2 == 0 {
            System::TyphoonStache
        } else {
            System::Dirnnb
        };
        run(system, &cfg, app, set, scale)
    });
    for (r, lat) in latencies.into_iter().enumerate() {
        let (ty, d) = (&outs[r * 2], &outs[r * 2 + 1]);
        t.row(vec![
            lat.to_string(),
            ty.cycles.to_string(),
            d.cycles.to_string(),
            format!("{:.3}", ty.cycles.as_f64() / d.cycles.as_f64()),
        ]);
        records.push(PointRecord::new(format!("ablation2 latency {lat}"), "Typhoon/Stache", ty));
        records.push(PointRecord::new(format!("ablation2 latency {lat}"), "DirNNB", d));
    }
    println!("{t}");
    println!("(paper: a slower network shrinks Typhoon's relative overhead)\n");

    println!("ABLATION 3. Stache page budget (EM3D small): replacement cost.\n");
    let mut t = Table::new(vec![
        "budget (pages)",
        "cycles",
        "replacements",
        "writebacks",
    ]);
    let budgets = [usize::MAX, 64, 32, 16];
    let outs = par::run_indexed(jobs, budgets.len(), |i| {
        let mut cfg = base_cfg.clone();
        cfg.stache_capacity_bytes = if budgets[i] == usize::MAX {
            usize::MAX
        } else {
            budgets[i] * 4096
        };
        run(System::TyphoonStache, &cfg, app, set, scale)
    });
    for (pages, out) in budgets.into_iter().zip(&outs) {
        let label = if pages == usize::MAX {
            "unbounded".to_string()
        } else {
            pages.to_string()
        };
        t.row(vec![
            label.clone(),
            out.cycles.to_string(),
            format!("{}", out.report.get("stache.replacements").unwrap_or(0.0)),
            format!("{}", out.report.get("stache.writebacks_sent").unwrap_or(0.0)),
        ]);
        records.push(PointRecord::new(format!("ablation3 budget {label}"), "Typhoon/Stache", out));
    }
    println!("{t}");

    println!("ABLATION 4. Dedicated NP vs software Tempest (handlers on the CPU).\n");
    let mut t = Table::new(vec!["handler placement", "cycles", "vs dedicated"]);
    let modes = [tt_base::config::NpMode::Dedicated, tt_base::config::NpMode::OnCpu];
    let outs = par::run_indexed(jobs, modes.len(), |i| {
        let mut cfg = base_cfg.clone();
        cfg.typhoon.np_mode = modes[i];
        run(System::TyphoonStache, &cfg, app, set, scale)
    });
    let base_cycles = outs[0].cycles.as_f64();
    for (mode, out) in modes.into_iter().zip(&outs) {
        t.row(vec![
            format!("{mode:?}"),
            out.cycles.to_string(),
            format!("{:.2}x", out.cycles.as_f64() / base_cycles),
        ]);
        records.push(PointRecord::new(format!("ablation4 np {mode:?}"), "Typhoon/Stache", out));
    }
    println!("{t}");
    println!("(the dedicated NP is the hardware investment the paper argues for)\n");

    // Ocean's owners span multiple pages, so owner placement genuinely
    // differs from round-robin (EM3D at this scale has one page per
    // owner, where the two coincide).
    println!("ABLATION 5. DirNNB page placement (Ocean large, 4K caches).\n");
    let mut t = Table::new(vec!["placement", "DirNNB cycles", "Typhoon/Stache relative"]);
    let oapp = AppId::Ocean;
    let oset = DataSet::Large;
    // Scale capped at 4 so each owner spans several pages (at deeper
    // scales every owner fits one page and the two policies coincide).
    let scale = scale.min(4);
    let placements = [
        tt_base::config::DirPlacement::RoundRobin,
        tt_base::config::DirPlacement::Owner,
    ];
    // Task 0 is the shared Typhoon/Stache run; tasks 1.. sweep placement.
    let outs = par::run_indexed(jobs, placements.len() + 1, |i| {
        if i == 0 {
            run(System::TyphoonStache, &base_cfg, oapp, oset, scale)
        } else {
            let mut cfg = base_cfg.clone();
            cfg.dirnnb.placement = placements[i - 1];
            run(System::Dirnnb, &cfg, oapp, oset, scale)
        }
    });
    let ty = outs[0].cycles;
    records.push(PointRecord::new("ablation5 baseline".into(), "Typhoon/Stache", &outs[0]));
    for (placement, d) in placements.into_iter().zip(&outs[1..]) {
        t.row(vec![
            format!("{placement:?}"),
            d.cycles.to_string(),
            format!("{:.3}", ty.as_f64() / d.cycles.as_f64()),
        ]);
        records.push(PointRecord::new(format!("ablation5 {placement:?}"), "DirNNB", d));
    }
    println!("{t}");
    println!("(the paper: first-touch-quality placement 'eliminates much of the\ndifference' — Stache gets that locality automatically)\n");

    println!("ABLATION 6. Ocean with a custom boundary-push protocol.\n");
    let mut t = Table::new(vec!["protocol", "cycles", "net packets"]);
    {
        use tt_apps::ocean::{Ocean, OceanParams, OceanSync};
        use tt_apps::PhasedWorkload;
        use tt_stache::{DelayedUpdateProtocol, StacheProtocol};
        use tt_typhoon::TyphoonMachine;
        let mut p = OceanParams::table3(DataSet::Small, nodes);
        p.n = (p.n / (scale.min(4))).max(16);
        p.iterations = 6;
        // Task 0: transparent Stache; task 1: the custom push protocol.
        let outs = par::run_indexed(jobs, 2, |i| {
            min_of_runs(repeat, || {
                measure(|| {
                    let r = if i == 0 {
                        TyphoonMachine::new(
                            base_cfg.clone(),
                            Box::new(PhasedWorkload::new(Ocean::new(p.clone()))),
                            &|id, layout, cfg| Box::new(StacheProtocol::new(id, layout, cfg)),
                        )
                        .run()
                    } else {
                        let mut p = p.clone();
                        p.sync = OceanSync::Push;
                        TyphoonMachine::new(
                            base_cfg.clone(),
                            Box::new(PhasedWorkload::new(Ocean::new(p))),
                            &|id, layout, cfg| {
                                Box::new(DelayedUpdateProtocol::new(id, layout, cfg))
                            },
                        )
                        .run()
                    };
                    (r.cycles, r.report, None)
                })
            })
        });
        for (name, r) in [("Typhoon/Stache", &outs[0]), ("Typhoon/Push", &outs[1])] {
            t.row(vec![
                name.to_string(),
                r.cycles.to_string(),
                format!("{}", r.report.get("net.packets").unwrap_or(0.0)),
            ]);
            records.push(PointRecord::new("ablation6 ocean push".into(), name, r));
        }
    }
    println!("{t}");
    println!("(boundary rows are pushed once per sweep instead of the\ninvalidate/ack/request/response round trips)\n");

    // Occupancy affects Typhoon's real message machinery; the DirNNB
    // cost model (like the paper's) abstracts injection entirely, so its
    // column is constant — the row spread shows how sensitive the
    // user-level system is to a serializing network port.
    println!("ABLATION 7. Network injection-port occupancy (EM3D small, 4K caches).\n");
    let mut t = Table::new(vec!["occupancy (cycles/packet)", "Typhoon/Stache", "DirNNB", "relative"]);
    let occupancies = [0u64, 4, 16];
    let outs = par::run_indexed(jobs, occupancies.len() * 2, |i| {
        let mut cfg = base_cfg.clone();
        cfg.timing.network_occupancy = tt_base::Cycles::new(occupancies[i / 2]);
        let system = if i % 2 == 0 {
            System::TyphoonStache
        } else {
            System::Dirnnb
        };
        run(system, &cfg, app, set, scale)
    });
    for (r, occ) in occupancies.into_iter().enumerate() {
        let (ty, d) = (&outs[r * 2], &outs[r * 2 + 1]);
        t.row(vec![
            occ.to_string(),
            ty.cycles.to_string(),
            d.cycles.to_string(),
            format!("{:.3}", ty.cycles.as_f64() / d.cycles.as_f64()),
        ]);
        records.push(PointRecord::new(format!("ablation7 occupancy {occ}"), "Typhoon/Stache", ty));
        records.push(PointRecord::new(format!("ablation7 occupancy {occ}"), "DirNNB", d));
    }
    println!("{t}");
    println!("(the paper's zero-contention network is the occupancy-0 row; the\nDirNNB cost model abstracts injection, so only Typhoon moves)");

    cli.finish("ablations", &records);
}
