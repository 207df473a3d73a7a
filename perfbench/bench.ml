(* perfbench: one workload per process.

     bench.exe --workload eval|compile|serve --seed N --seconds S --trace 0|1

   Sets the workload up three times (setup_s is the median), then runs
   whole rounds of its ops until their summed wall reaches S seconds.
   With --trace 0 the last stdout line carries the end-to-end metrics;
   with --trace 1 untraced and traced rounds alternate, spans are
   written under .perfbench/, and the line carries the per-layer
   metrics.  See README.md. *)

module M = Measure

module type WORKLOAD = sig
  type t
  val setup : seed:int -> t
  val round : t -> unit

  (* workload-specific end-to-end metrics; [None] = no op class of its
     own in this workload, reported as p50_ms *)
  val e2e : t -> M.op list -> (string * float option) list
end

let workloads : (string * (module WORKLOAD)) list =
  [ ("eval", (module Wl_eval)) ; ("compile", (module Wl_compile));
    ("serve", (module Wl_serve)) ]

let end_to_end_units =
  [ ("setup_s", "s"); ("ops_per_s", "1/s"); ("p50_ms", "ms");
    ("p90_ms", "ms"); ("cold_p50_ms", "ms");
    ("warm_p50_ms", "ms"); ("report_p50_ms", "ms"); ("sim_cycles", "cycles");
    ("peak_rss_mb", "MB") ]

let passes =
  [ "annotate"; "flags"; "split-edges"; "build-ssa"; "refine"; "ssapre";
    "out-of-ssa"; "store-promo"; "strength"; "cleanup"; "spec-safety" ]

(* Span layers whose self time is reported as <layer>_ms per round. *)
let span_layers =
  [ "ir.lower"; "opt.optimize"; "codegen.lower"; "codegen.schedule";
    "machine.sim"; "prof.profile"; "vm.lower"; "vm.exec"; "fdo.cache_find";
    "fdo.cache_store"; "fdo.artifact_write"; "fdo.artifact_read";
    "safety.check"; "svc.encode"; "svc.roundtrip"; "svc.decode" ]

let per_layer_units =
  List.map (fun l -> (l ^ "_ms", "ms")) span_layers
  @ List.map (fun p -> ("pass." ^ p ^ "_ms", "ms")) passes
  @ [ ("ir.src_kb_per_s", "KB/s"); ("opt.alloc_mb", "MB");
      ("ssapre.checks", "count"); ("ssapre.reloads", "count");
      ("codegen.static_insns", "count"); ("machine.minsns_per_s", "M/s");
      ("machine.loads_retired", "count"); ("machine.checks", "count");
      ("machine.check_misses", "count"); ("machine.data_cycles", "cycles");
      ("vm.msteps_per_s", "M/s"); ("vm.check_reloads", "count");
      ("fdo.artifact_kb", "KB"); ("fdo.store_merge_ms", "ms");
      ("fdo.cache_hit_ppm", "ppm"); ("svc.cold", "count");
      ("svc.warm", "count"); ("svc.recompiles", "count");
      ("gc.minor_mb", "MB"); ("gc.major_collections", "count");
      ("trace.overhead_pct", "%"); ("trace.cover_pct", "%");
      ("trace.op_gap_p90_pct", "%") ]

let print_result metrics units =
  let body =
    List.map
      (fun (name, unit) ->
        let v = Option.value ~default:0. (List.assoc_opt name metrics) in
        let v = if Float.is_finite v then v else 0. in
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
      units
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    !M.correct !M.attempted !M.failed (String.concat ", " body)

let walls ops = List.map (fun (o : M.op) -> o.M.wall) ops

(* Per-layer table of a traced run: self time per span name per round,
   and per op the layers' self time against the op's untraced wall. *)
let trace_report ~workload ~seed ~t_rounds ~u_ops ~t_ops =
  let selfs = Span.self_times (Span.all ()) in
  let by_name = Hashtbl.create 32 and by_exec = Hashtbl.create 1024 in
  let bump tbl k v =
    Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))
  in
  List.iter
    (fun ((s : Span.t), self) ->
      bump by_name s.Span.name self;
      if s.Span.name <> "op" then bump by_exec s.Span.op self)
    selfs;
  let u_wall = Hashtbl.create 256 in
  List.iter
    (fun (o : M.op) ->
      Hashtbl.replace u_wall o.M.id
        (o.M.wall :: Option.value ~default:[] (Hashtbl.find_opt u_wall o.M.id)))
    u_ops;
  let rows =
    List.filter_map
      (fun (o : M.op) ->
        match Hashtbl.find_opt u_wall o.M.id with
        | None -> None
        | Some ws ->
          let u = M.iqm ws in
          let layers = Option.value ~default:0. (Hashtbl.find_opt by_exec o.M.exec) in
          Some (o, u, layers))
      t_ops
  in
  let cover =
    100. *. M.sum (List.map (fun (_, _, l) -> l) rows)
    /. M.sum (List.map (fun (_, u, _) -> u) rows)
  in
  let gaps =
    List.map (fun (_, u, l) -> 100. *. Float.abs (l -. u) /. u) rows
  in
  let per_round name =
    1000. *. Option.value ~default:0. (Hashtbl.find_opt by_name name)
    /. float_of_int t_rounds
  in
  M.ensure_dir M.work_dir;
  let base = Printf.sprintf "%s/%s-seed%d" M.work_dir workload seed in
  Span.write (base ^ ".spans.jsonl");
  let oc = open_out (base ^ ".selftime.txt") in
  let out fmt = Printf.kfprintf (fun _ -> ()) oc fmt in
  out "self time per round, %s seed %d, %d traced round(s)\n" workload seed
    t_rounds;
  let names =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name []
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  let total = M.sum (List.map snd names) in
  List.iter
    (fun (n, v) ->
      out "  %-22s %10.2f ms  %5.1f%%\n" n
        (1000. *. v /. float_of_int t_rounds) (100. *. v /. total))
    names;
  out "layers cover %.1f%% of the untraced op walls; per-op gap p90 %.1f%%\n"
    cover (M.percentile gaps 0.9);
  out "\nper op: id label untraced_ms (interquartile mean) layers_ms | layer self ms\n";
  let op_layers = Hashtbl.create 1024 in
  List.iter
    (fun ((s : Span.t), self) ->
      if s.Span.name <> "op" then
        Hashtbl.replace op_layers s.Span.op
          ((s.Span.name, self)
           :: Option.value ~default:[] (Hashtbl.find_opt op_layers s.Span.op)))
    selfs;
  List.iter
    (fun ((o : M.op), u, l) ->
      let ls = Hashtbl.create 8 in
      List.iter (fun (n, v) -> bump ls n v)
        (Option.value ~default:[] (Hashtbl.find_opt op_layers o.M.exec));
      let parts =
        Hashtbl.fold (fun n v acc -> Printf.sprintf "%s=%.3f" n (1000. *. v) :: acc) ls []
        |> List.sort compare
      in
      out "  %4d %-28s %9.3f %9.3f | %s\n" o.M.id o.M.label (1000. *. u)
        (1000. *. l) (String.concat " " parts))
    rows;
  close_out oc;
  Printf.eprintf "perfbench: spans in %s.spans.jsonl, table in %s.selftime.txt\n%!"
    base base;
  (per_round, cover, M.percentile gaps 0.9)

let main ~workload ~seed ~seconds ~trace =
  let (module W : WORKLOAD) =
    match List.assoc_opt workload workloads with
    | Some w -> w
    | None -> failwith ("unknown workload " ^ workload)
  in
  (* the compiler's domain pool at width 1: its inline path *)
  Spec_driver.Parpool.set_jobs 1;
  M.ensure_dir M.work_dir;
  let setup_times = ref [] and state = ref None in
  for _ = 1 to 3 do
    state := None;
    Gc.compact ();
    let t0 = M.now () in
    let st = W.setup ~seed in
    setup_times := (M.now () -. t0) :: !setup_times;
    state := Some st
  done;
  let setup_s = M.median !setup_times in
  let st = Option.get !state in
  let u_ops = ref [] and t_ops = ref [] in
  let u_rounds = ref 0 and t_rounds = ref 0 in
  let measured = ref 0. in
  while
    !measured < seconds || (trace && (!u_rounds = 0 || !t_rounds = 0))
  do
    let traced = trace && !u_rounds > !t_rounds in
    Span.enabled := traced;
    M.round_ops := [];
    (* every round starts from a settled heap (serve's ops do not
       settle one by one) *)
    Gc.full_major ();
    W.round st;
    let ops = !M.round_ops in
    measured := !measured +. M.sum (walls ops);
    if traced then begin
      t_ops := ops @ !t_ops;
      incr t_rounds
    end
    else begin
      u_ops := ops @ !u_ops;
      incr u_rounds
    end
  done;
  Span.enabled := false;
  let typical = M.per_id !u_ops in
  let e2e = W.e2e st typical in
  let ms p = 1000. *. M.percentile (walls typical) p in
  let rate ops =
    float_of_int (List.length ops) /. M.sum (walls ops)
  in
  if not trace then begin
    let p50 = ms 0.5 in
    let metrics =
      [ ("setup_s", setup_s); ("ops_per_s", rate typical); ("p50_ms", p50);
        ("p90_ms", ms 0.9);
        ("peak_rss_mb", M.peak_rss_mb ()) ]
      @ List.map (fun (n, v) -> (n, Option.value ~default:p50 v)) e2e
    in
    print_result metrics end_to_end_units
  end
  else begin
    let rounds = float_of_int !t_rounds in
    let per_round, cover, gap =
      trace_report ~workload ~seed ~t_rounds:!t_rounds ~u_ops:!u_ops
        ~t_ops:!t_ops
    in
    let acc name = M.get name /. rounds in
    let secs name = per_round name /. 1000. in
    let ratio num den = if den > 0. then num /. den else 0. in
    let metrics =
      List.map (fun l -> (l ^ "_ms", per_round l)) span_layers
      @ List.map (fun p -> ("pass." ^ p ^ "_ms", 1000. *. acc ("pass." ^ p)))
          passes
      @ [ ("ir.src_kb_per_s", ratio (acc "ir.src_bytes" /. 1024.) (secs "ir.lower"));
          ("opt.alloc_mb", acc "opt.alloc_words" *. 8. /. 1e6);
          ("machine.minsns_per_s",
           ratio (acc "machine.insns" /. 1e6) (secs "machine.sim"));
          ("vm.msteps_per_s", ratio (acc "vm.steps" /. 1e6) (secs "vm.exec"));
          ("fdo.artifact_kb",
           ratio (M.get "fdo.artifact_bytes" /. 1024.) (M.get "fdo.artifacts"));
          ("fdo.store_merge_ms", 1000. *. acc "fdo.store_merge");
          ("fdo.cache_hit_ppm", ratio (M.get "fdo.cache_hit_ppm") (M.get "fdo.cache_samples"));
          ("gc.minor_mb",
           !M.gc_minor_words *. 8. /. 1e6 /. float_of_int !u_rounds);
          ("gc.major_collections",
           float_of_int !M.gc_major_collections /. float_of_int !u_rounds);
          ("trace.overhead_pct",
           let u = rate (M.per_id !u_ops) and t = rate (M.per_id !t_ops) in
           100. *. (u -. t) /. u);
          ("trace.cover_pct", cover); ("trace.op_gap_p90_pct", gap) ]
      @ List.map (fun n -> (n, acc n))
          [ "ssapre.checks"; "ssapre.reloads"; "codegen.static_insns";
            "machine.loads_retired"; "machine.checks"; "machine.check_misses";
            "machine.data_cycles"; "vm.check_reloads"; "svc.cold"; "svc.warm";
            "svc.recompiles" ]
    in
    print_result metrics per_layer_units
  end

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, " eval | compile | serve");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measured seconds");
      ("--trace", Arg.Set_int trace, " 1: traced run, per-layer metrics") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
