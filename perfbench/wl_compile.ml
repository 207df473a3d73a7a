(* compile: cold and warm compiles of fat translation units.  Each
   kernel's train source becomes a 73-function unit
   ([Experiments.compile_unit ~copies:24]); every unit compiles under
   base and heuristic, the two crypto units also with safety checking
   and deoptimization support.  A cold op compiles a freshly salted
   copy of the unit's source (a trailing comment naming the seed, the
   round and the op), so it misses the cache by construction; the warm
   op right after it compiles the same text and hits the same key.
   The seed picks the op order and the salts. *)

open Spec_ir
open Spec_driver
module W = Spec_workloads.Workloads
module Cache = Spec_fdo.Cache
module M = Measure

type config = {
  src : string;
  oracle : string;          (* Interp_ref on the unoptimized unit *)
  variant : Pipeline.variant;
  safety : bool;            (* ~safety:true ~deopt:true *)
  label : string;
}

type t = {
  seed : int;
  configs : config list;    (* seeded op order *)
  cold_text : (string, string) Hashtbl.t;  (* label -> first cold Pp text *)
  mutable round_no : int;
  mutable sim_cycles : int;
}

let copies = 24
let crypto = [ "cipher"; "ctsel" ]

let setup ~seed =
  let rng = Spec_stress.Srng.of_path seed [ "compile" ] in
  let configs =
    List.concat_map
      (fun (w : W.workload) ->
        let src = Experiments.compile_unit ~copies (W.train_source w) in
        let oracle = (Spec_prof.Interp_ref.run (Lower.compile src)).Spec_prof.Interp_ref.output in
        let mk variant safety =
          { src; oracle; variant; safety;
            label =
              Printf.sprintf "%s/%s%s" w.W.name
                (Pipeline.variant_name variant)
                (if safety then "+safety" else "") }
        in
        [ mk Pipeline.Base false; mk Pipeline.Spec_heuristic false ]
        @ (if List.mem w.W.name crypto then
             [ mk Pipeline.Base true; mk Pipeline.Spec_heuristic true ]
           else []))
      W.all
  in
  { seed; configs = M.shuffle rng configs; cold_text = Hashtbl.create 32;
    round_no = 0; sim_cycles = 0 }

let rounds = 3
let strength = true

(* Untraced: the public entry point, as a user calls it. *)
let compile_call cache c src =
  Pipeline.compile_and_optimize ~rounds ~strength ~deopt:c.safety
    ~safety:c.safety ~cache src c.variant

(* Traced: the same public calls [compile_and_optimize] makes on this
   path (no profile, default knobs), each under its layer's span. *)
let compile_traced cache c src =
  let config =
    Spec_ssapre.Ssapre.default_config (Pipeline.mode_of_variant c.variant)
  in
  let key =
    Pipeline.cache_key ~rounds ~strength ~deopt:c.safety ~config
      ~variant:c.variant ~edge_profile:false ~profile_digest:None src
  in
  match Span.span "fdo.cache_find" (fun () -> Cache.find cache key) with
  | Some data ->
    let a =
      match Span.span "fdo.artifact_read" (fun () -> Pipeline.read_artifact data) with
      | Ok a -> a
      | Error e -> failwith ("unreadable artifact: " ^ e)
    in
    let safety =
      if c.safety then
        Some (Span.span "safety.check" (fun () ->
            Spec_safety.Taint.check
              ~pt:(Spec_alias.Steensgaard.solve a.Pipeline.a_prog)
              a.Pipeline.a_prog))
      else None
    in
    { Pipeline.prog = a.Pipeline.a_prog; stats = a.Pipeline.a_stats;
      variant = c.variant; report = Passes.empty_report ();
      from_cache = true;
      vm =
        (match a.Pipeline.a_vm with
         | Some v -> Lazy.from_val v
         | None -> lazy (Spec_prof.Vmcode.compile a.Pipeline.a_prog));
      safety }
  | None ->
    let prog = Span.span "ir.lower" (fun () -> Lower.compile src) in
    let a0 = Gc.minor_words () in
    let r =
      Span.span "opt.optimize" (fun () ->
          Pipeline.optimize ~rounds ~strength ~deopt:c.safety ~safety:c.safety
            prog c.variant)
    in
    M.add "opt.alloc_words" (Gc.minor_words () -. a0);
    ignore (Span.span "vm.lower" (fun () -> Lazy.force r.Pipeline.vm)
            : Spec_prof.Vmcode.program);
    let art = Span.span "fdo.artifact_write" (fun () -> Pipeline.write_artifact r) in
    M.add "fdo.artifact_bytes" (float_of_int (String.length art));
    M.add "fdo.artifacts" 1.;
    Span.span "fdo.cache_store" (fun () -> Cache.store cache key art);
    r

(* The first cold program of each config in a run is executed and
   must print the oracle output: on the vm, except the heuristic
   programs, which run on the in-order machine (their cycles are
   sim_cycles).  On the vm, parser's and gzip's heuristic units take
   15-31 s for 2-4 M steps, because the vm keeps the ALAT entries of
   returned frames (see CHANGES.md).  Every later cold program, and
   every warm one, must be Pp-identical to that first one. *)
let check t c (r : Pipeline.result) ~cold =
  let text = Pp.prog_to_string r.Pipeline.prog in
  if r.Pipeline.from_cache = cold then
    M.wrong "%s: %s compile was served %s" c.label
      (if cold then "cold" else "warm")
      (if cold then "from the cache" else "without the cache");
  if c.safety && r.Pipeline.safety = None then
    M.wrong "%s: no safety report" c.label;
  match Hashtbl.find_opt t.cold_text c.label with
  | Some first ->
    if text <> first then
      M.wrong "%s: %s program differs from the first cold program" c.label
        (if cold then "cold" else "warm")
  | None when not cold -> M.wrong "%s: warm before cold" c.label
  | None ->
    Hashtbl.replace t.cold_text c.label text;
    if c.variant = Pipeline.Spec_heuristic && not c.safety then begin
      let module Machine = Spec_machine.Machine in
      let mp = Spec_codegen.Codegen.lower r.Pipeline.prog in
      ignore (Spec_codegen.Schedule.run mp : Spec_codegen.Schedule.stats);
      let m = Machine.run_on Machine.Inorder mp in
      if m.Machine.output <> c.oracle then
        M.wrong "%s: machine output differs from the oracle" c.label;
      t.sim_cycles <- t.sim_cycles + m.Machine.perf.Machine.cycles
    end
    else begin
      let v = Spec_prof.Vm.run_program (Lazy.force r.Pipeline.vm) in
      if v.Spec_prof.Interp.output <> c.oracle then
        M.wrong "%s: vm output differs from the oracle" c.label
    end

let round t =
  t.round_no <- t.round_no + 1;
  let dir =
    Printf.sprintf "%s/compile-%d-%d" M.work_dir (Unix.getpid ()) t.round_no
  in
  M.rm_rf dir;
  let cache = Cache.create dir in
  let compile = if !Span.enabled then compile_traced else compile_call in
  List.iteri
    (fun i c ->
      let src =
        Printf.sprintf "%s// perfbench seed %d round %d op %d\n" c.src t.seed
          t.round_no i
      in
      M.add "ir.src_bytes" (float_of_int (String.length src));
      (match
         M.op ~id:(2 * i) ~cls:"cold" ~label:(c.label ^ "/cold") (fun () ->
             compile cache c src)
       with
       | Some r ->
         check t c r ~cold:true;
         let st = r.Pipeline.stats in
         M.add "ssapre.checks" (float_of_int st.Spec_ssapre.Ssapre.checks);
         M.add "ssapre.reloads" (float_of_int st.Spec_ssapre.Ssapre.reloads);
         List.iter
           (fun (ps : Passes.pass_stat) ->
             M.add ("pass." ^ ps.Passes.ps_pass) ps.Passes.ps_time)
           r.Pipeline.report.Passes.rp_passes
       | None -> ());
      match
        M.op ~id:((2 * i) + 1) ~cls:"warm" ~label:(c.label ^ "/warm")
          (fun () -> compile cache c src)
      with
      | Some r -> check t c r ~cold:false
      | None -> ())
    t.configs;
  let s = Cache.stats cache in
  M.add "fdo.cache_hit_ppm"
    (1e6 *. float_of_int s.Cache.hits
     /. float_of_int (max 1 (s.Cache.hits + s.Cache.misses)));
  M.add "fdo.cache_samples" 1.;
  M.rm_rf dir

let e2e t (ops : M.op list) =
  let p50 = M.class_p50_ms ops in
  [ ("cold_p50_ms", Some (p50 "cold")); ("warm_p50_ms", Some (p50 "warm"));
    ("report_p50_ms", None);
    ("sim_cycles", Some (float_of_int t.sim_cycles)) ]
