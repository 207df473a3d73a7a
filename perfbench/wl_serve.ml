(* serve: a seeded replay of the compile service's 1200-request traffic
   mix (the mix of [Spec_service.Traffic]: 58% compiles, a quarter of
   them with execution; 30% profile reports with baseline, drifting or
   stale evidence; 12% stats) against [Shard.spawn ~shards:1] over a
   unix socket, one request in flight.  Set-up draws the request stream
   from the seed and computes every reply's expected program text,
   execution output and store digest with direct compiles.  Each round
   replays the whole stream against a fresh daemon with an empty cache;
   replies are compared with the expectations after the round. *)

open Spec_driver
open Spec_service
module Store = Spec_fdo.Store
module Srng = Spec_stress.Srng
module W = Spec_workloads.Workloads
module M = Measure

type expect =
  | Ex_compile of { key : string; prog : string; out : string option }
  | Ex_report of string     (* store digest after the merge *)
  | Ex_stats

type req = {
  rq : Proto.request;
  ex : expect;
  label : string;
  merge : (Store.t * float) option;  (* a report's evidence and weight *)
}

type t = {
  reqs : req array;
  mutable served : (string * int) list option;  (* per-round counters *)
}

let n_requests = 1200
let rounds = 3
let strength = true
let drift = 0.3
let mode_names = [| "none"; "base"; "heuristic"; "profile"; "profile" |]

let train_store src =
  let prog, prof, _ = Pipeline.train src in
  Store.of_profile prog prof

(* Two source versions per unit (v1: other size and input seed, so v0
   evidence is stale against it) and three stores: v0, a v0 sibling
   input whose counts drift, and v1's own. *)
type fixture = {
  name : string;
  srcs : string array;
  stores : Store.t array;
  mutable version : int;
  mutable mirror : Store.t;
}

let fixture (w : W.workload) =
  let tr = w.W.train in
  let v0 = w.W.source tr in
  let v1 = w.W.source { tr with W.size = tr.W.size + 3; W.seed = tr.W.seed + 17 } in
  let vd = w.W.source { tr with W.seed = tr.W.seed + 101 } in
  { name = w.W.name; srcs = [| v0; v1 |];
    stores = [| train_store v0; train_store vd; train_store v1 |];
    version = 0; mirror = Store.empty }

let lambda =
  (Daemon.default_config ~cache_dir:".").Daemon.sv_lambda

(* The direct compile a served compile must equal, memoized by key. *)
let direct memo ~variant ~prof ~digest ~exec src =
  let config =
    Spec_ssapre.Ssapre.default_config (Pipeline.mode_of_variant variant)
  in
  let key =
    Pipeline.cache_key ~rounds ~strength ~deopt:false ~config ~variant
      ~edge_profile:(prof <> None) ~profile_digest:digest src
  in
  let prog, out =
    match Hashtbl.find_opt memo key with
    | Some v -> v
    | None ->
      let r =
        Pipeline.compile_and_optimize ~rounds ~strength ~edge_profile:prof src
          variant
      in
      let out =
        lazy
          (match Spec_prof.Vm.run_program (Lazy.force r.Pipeline.vm) with
           | res -> res.Spec_prof.Interp.output
           | exception Spec_prof.Interp.Runtime_error m ->
             "!runtime error: " ^ m)
      in
      let v = (Spec_ir.Pp.prog_to_string r.Pipeline.prog, out) in
      Hashtbl.replace memo key v;
      v
  in
  Ex_compile { key; prog; out = (if exec then Some (Lazy.force out) else None) }

let setup ~seed =
  let fx = Array.of_list (List.map fixture W.all) in
  let n_units = Array.length fx in
  let memo = Hashtbl.create 256 in
  let rng = Srng.of_path seed [ "traffic" ] in
  let reqs =
    Array.init n_requests (fun i ->
        let r = Srng.split rng (string_of_int i) in
        let f = fx.(Srng.below r n_units) in
        let kind = Srng.below r 100 in
        if kind < 58 then begin
          if f.version = 0 && Srng.chance r ~ppm:30_000 then f.version <- 1;
          let mode = mode_names.(Srng.below r (Array.length mode_names)) in
          let exec = Srng.chance r ~ppm:250_000 in
          let src = f.srcs.(f.version) in
          let variant, prof, digest =
            match mode with
            | "none" -> (Pipeline.Noopt, None, None)
            | "base" -> (Pipeline.Base, None, None)
            | "heuristic" -> (Pipeline.Spec_heuristic, None, None)
            | _ ->
              let prof, _ = Store.bind f.mirror (Spec_ir.Lower.compile src) in
              (Pipeline.Spec_profile prof, Some prof, Some (Store.digest f.mirror))
          in
          { rq =
              Proto.Compile
                { Proto.cq_unit = f.name; cq_mode = mode; cq_rounds = rounds;
                  cq_strength = strength; cq_exec = exec; cq_src = src };
            ex = direct memo ~variant ~prof ~digest ~exec src;
            label = Printf.sprintf "%s/%s%s" f.name mode (if exec then "+exec" else "");
            merge = None }
        end
        else if kind < 88 then begin
          let store = f.stores.(Srng.below r 3) in
          let weight = match Srng.below r 10 with 0 -> 0.5 | 1 -> 2.0 | _ -> 1.0 in
          f.mirror <- Store.merge_weighted ~wa:lambda ~wb:weight f.mirror store;
          { rq =
              Proto.Report_profile
                { rq_unit = f.name; rq_weight = weight; rq_store = Store.write store };
            ex = Ex_report (Store.digest f.mirror);
            label = f.name ^ "/report";
            merge = Some (store, weight) }
        end
        else { rq = Proto.Stats; ex = Ex_stats; label = "stats"; merge = None })
  in
  { reqs; served = None }

(* A line client for traced rounds: the steps of [Client.rpc], each
   under its own span. *)
let raw_connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  (fd, Buffer.create 65536)

let raw_rpc (fd, buf) req =
  let line = Span.span "svc.encode" (fun () -> Proto.encode_request req) in
  let reply =
    Span.span "svc.roundtrip" (fun () ->
        let s = line ^ "\n" in
        let n = String.length s in
        let pos = ref 0 in
        while !pos < n do
          pos := !pos + Unix.write_substring fd s !pos (n - !pos)
        done;
        let chunk = Bytes.create 65536 in
        let rec take () =
          let s = Buffer.contents buf in
          match String.index_opt s '\n' with
          | Some i ->
            Buffer.clear buf;
            Buffer.add_substring buf s (i + 1) (String.length s - i - 1);
            String.sub s 0 i
          | None ->
            (match Unix.read fd chunk 0 (Bytes.length chunk) with
             | 0 -> failwith "connection closed by the daemon"
             | k -> Buffer.add_subbytes buf chunk 0 k);
            take ()
        in
        take ())
  in
  Span.span "svc.decode" (fun () -> Proto.decode_response reply)

let counter kvs name =
  match List.assoc_opt name kvs with
  | Some v -> v
  | None -> failwith ("stats reply lacks " ^ name)

let check t ~replies ~kvs =
  let seen = Hashtbl.create 256 in
  Array.iteri
    (fun i reply ->
      let r = t.reqs.(i) in
      match (r.ex, reply) with
      | _, None -> ()
      | Ex_compile e, Some (Proto.Compiled cr) ->
        if cr.Proto.cr_key <> e.key then M.wrong "%d %s: cache key" i r.label;
        if cr.Proto.cr_prog <> e.prog then
          M.wrong "%d %s: served program differs from the direct compile" i
            r.label;
        (match e.out with
         | Some out when cr.Proto.cr_output <> out ->
           M.wrong "%d %s: served execution output differs" i r.label
         | _ -> ());
        if cr.Proto.cr_served = Proto.Cold then begin
          if Hashtbl.mem seen e.key then
            M.wrong "%d %s: key served cold twice" i r.label;
          Hashtbl.replace seen e.key ()
        end
      | Ex_report d, Some (Proto.Profiled pr) ->
        if pr.Proto.rr_digest <> d then M.wrong "%d %s: store digest" i r.label
      | Ex_stats, Some (Proto.Stats_reply _) -> ()
      | _, Some _ -> M.wrong "%d %s: unexpected reply" i r.label)
    replies;
  if counter kvs "errors" <> 0 then
    M.wrong "daemon errors = %d" (counter kvs "errors");
  if counter kvs "store_invalid" <> 0 then
    M.wrong "daemon store_invalid = %d" (counter kvs "store_invalid");
  (* the replay is deterministic: every round is served alike *)
  let served = List.map (fun n -> (n, counter kvs n)) [ "cold"; "warm"; "recompiles" ] in
  (match t.served with
   | Some s when s <> served -> M.wrong "rounds served differently: %s"
       (String.concat " " (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) served))
   | _ -> t.served <- Some served);
  List.iter (fun (n, v) -> M.add ("svc." ^ n) (float_of_int v)) served;
  M.add "fdo.cache_hit_ppm" (float_of_int (counter kvs "cache_hit_ppm"));
  M.add "fdo.cache_samples" 1.

let cls_of = function
  | Some (Proto.Compiled { Proto.cr_served = Proto.Cold; _ }) -> "cold"
  | Some (Proto.Compiled _) -> "warm"
  | Some (Proto.Profiled _) -> "report"
  | _ -> "stats"

let round t =
  let dir = Printf.sprintf "%s/serve-%d" M.work_dir (Unix.getpid ()) in
  M.rm_rf dir;
  Unix.mkdir dir 0o755;
  let socket = Filename.concat dir "s.sock" in
  let cfg =
    { (Daemon.default_config ~cache_dir:(Filename.concat dir "cache")) with
      Daemon.sv_drift = drift }
  in
  let server = Shard.spawn ~shards:1 cfg ~socket in
  let client =
    match Client.connect socket with
    | Ok c -> c
    | Error m -> failwith ("serve: " ^ m)
  in
  let raw = if !Span.enabled then Some (raw_connect socket) else None in
  let replies = Array.make n_requests None in
  let rpc =
    match raw with
    | Some conn -> fun req -> raw_rpc conn req
    | None -> fun req -> Client.rpc client req
  in
  Array.iteri
    (fun i r ->
      match
        (* ~1 ms ops: a collection per request would cost more than
           the replay; bench.ml settles the heap per round instead *)
        M.op ~settle:false ~id:i ~cls:"req" ~label:r.label (fun () ->
            match rpc r.rq with
            | Ok reply -> reply
            | Error m -> failwith m)
      with
      | Some reply -> replies.(i) <- Some reply
      | None -> ())
    t.reqs;
  (* latency classes follow how each request was served *)
  M.round_ops :=
    List.map
      (fun (o : M.op) -> { o with M.cls = cls_of replies.(o.M.id) })
      !M.round_ops;
  let kvs =
    match Client.rpc client Proto.Stats with
    | Ok (Proto.Stats_reply kvs) -> kvs
    | _ -> failwith "serve: final stats request failed"
  in
  (match raw with Some (fd, _) -> Unix.close fd | None -> ());
  Client.close client;
  Shard.stop server;
  M.rm_rf dir;
  check t ~replies ~kvs;
  (* the unit stores' merges, as the daemon ran them, timed apart *)
  if !Span.enabled then begin
    let mirrors = Hashtbl.create 16 in
    Array.iter
      (fun r ->
        match (r.rq, r.merge) with
        | Proto.Report_profile { rq_unit; _ }, Some (store, weight) ->
          let m = Option.value ~default:Store.empty (Hashtbl.find_opt mirrors rq_unit) in
          let t0 = M.now () in
          let m' = Store.merge_weighted ~wa:lambda ~wb:weight m store in
          M.add "fdo.store_merge" (M.now () -. t0);
          Hashtbl.replace mirrors rq_unit m'
        | _ -> ())
      t.reqs
  end

(* sim_cycles: in-order cycles of the heuristic programs the service
   compiles for the units' v0 sources, simulated after the timed
   window; each must print what the vm printed in set-up. *)
let sim_cycles () =
  let module Machine = Spec_machine.Machine in
  List.fold_left
    (fun acc (w : W.workload) ->
      let src = W.train_source w in
      let r =
        Pipeline.compile_and_optimize ~rounds ~strength src
          Pipeline.Spec_heuristic
      in
      let mp = Spec_codegen.Codegen.lower r.Pipeline.prog in
      ignore (Spec_codegen.Schedule.run mp : Spec_codegen.Schedule.stats);
      let m = Machine.run_on Machine.Inorder mp in
      let v = Spec_prof.Vm.run_program (Lazy.force r.Pipeline.vm) in
      if m.Machine.output <> v.Spec_prof.Interp.output then
        M.wrong "%s/heuristic: machine and vm outputs differ" w.W.name;
      acc + m.Machine.perf.Machine.cycles)
    0 W.all

let e2e _ (ops : M.op list) =
  let p50 = M.class_p50_ms ops in
  [ ("cold_p50_ms", Some (p50 "cold")); ("warm_p50_ms", Some (p50 "warm"));
    ("report_p50_ms", Some (p50 "report"));
    ("sim_cycles", Some (float_of_int (sim_cycles ()))) ]
