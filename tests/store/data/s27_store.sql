BEGIN TRANSACTION;
CREATE TABLE campaigns (
    id                     INTEGER PRIMARY KEY AUTOINCREMENT,
    circuit                TEXT NOT NULL,
    net_digest             TEXT,
    config_digest          TEXT NOT NULL,
    config_json            TEXT,
    bench                  TEXT,
    backend                TEXT,
    robust                 INTEGER,
    campaign_seed          INTEGER,
    rpg_prefix             INTEGER NOT NULL DEFAULT 0,
    rpg_budget             INTEGER,
    rpg_window             INTEGER,
    total_faults           INTEGER NOT NULL,
    tested                 INTEGER NOT NULL,
    untestable             INTEGER NOT NULL,
    aborted                INTEGER NOT NULL,
    pattern_count          INTEGER NOT NULL,
    cpu_seconds            REAL NOT NULL,
    untestable_local       INTEGER NOT NULL,
    untestable_sequential  INTEGER NOT NULL,
    aborted_local          INTEGER NOT NULL,
    aborted_sequential     INTEGER NOT NULL,
    targeted               INTEGER NOT NULL,
    detected_by_simulation INTEGER NOT NULL,
    prefix_applied         INTEGER NOT NULL,
    prefix_detected        INTEGER NOT NULL,
    prefix_stop_reason     TEXT,
    source                 TEXT NOT NULL,
    partial                INTEGER NOT NULL DEFAULT 0,
    created_at             REAL NOT NULL
);
INSERT INTO "campaigns" VALUES(1,'s27','d75b098156900b0c','e4c44b1fc512be0d','{"campaign_seed": 0, "enable_fault_simulation": true, "fill_value": 0, "local_backtrack_limit": 100, "max_local_retries": 3, "robust": true, "sequential_backtrack_limit": 100, "verify_sequences": true}','# s27
# 4 inputs, 1 outputs, 3 D-type flipflops, 10 gates
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)

OUTPUT(G17)

G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G14 = NOT(G0)
G17 = NOT(G11)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NOR(G2, G12)
',NULL,1,0,0,256,16,52,40,6,6,40,2.48180776999987529052e-01,6,0,6,2,25,29,0,0,NULL,'cli',0,1.79221902008001136774e+09);
CREATE TABLE costs (
    campaign_id           INTEGER NOT NULL REFERENCES campaigns(id) ON DELETE CASCADE,
    ordinal               INTEGER NOT NULL,
    fault                 TEXT NOT NULL,
    status                TEXT NOT NULL,
    phase                 TEXT NOT NULL,
    seconds               REAL NOT NULL,
    attempts              INTEGER NOT NULL,
    local_backtracks      INTEGER NOT NULL,
    sequential_backtracks INTEGER NOT NULL,
    decisions             INTEGER NOT NULL,
    implication_sweeps    INTEGER NOT NULL,
    wavefront_skipped     INTEGER NOT NULL,
    words_simulated       INTEGER NOT NULL,
    engine                TEXT NOT NULL,
    PRIMARY KEY (campaign_id, ordinal)
);
CREATE TABLE faults (
    campaign_id INTEGER NOT NULL REFERENCES campaigns(id) ON DELETE CASCADE,
    idx         INTEGER NOT NULL,
    fault       TEXT NOT NULL,
    fault_json  TEXT NOT NULL,
    PRIMARY KEY (campaign_id, idx)
);
INSERT INTO "faults" VALUES(1,0,'G0 StR','{"line": {"kind": "stem", "signal": "G0"}, "type": "StR"}');
INSERT INTO "faults" VALUES(1,1,'G0 StF','{"line": {"kind": "stem", "signal": "G0"}, "type": "StF"}');
INSERT INTO "faults" VALUES(1,2,'G1 StR','{"line": {"kind": "stem", "signal": "G1"}, "type": "StR"}');
INSERT INTO "faults" VALUES(1,3,'G1 StF','{"line": {"kind": "stem", "signal": "G1"}, "type": "StF"}');
INSERT INTO "faults" VALUES(1,4,'G2 StR','{"line": {"kind": "stem", "signal": "G2"}, "type": "StR"}');
INSERT INTO "faults" VALUES(1,5,'G2 StF','{"line": {"kind": "stem", "signal": "G2"}, "type": "StF"}');
INSERT INTO "faults" VALUES(1,6,'G3 StR','{"line": {"kind": "stem", "signal": "G3"}, "type": "StR"}');
INSERT INTO "faults" VALUES(1,7,'G3 StF','{"line": {"kind": "stem", "signal": "G3"}, "type": "StF"}');
INSERT INTO "faults" VALUES(1,8,'G5 StR','{"line": {"kind": "stem", "signal": "G5"}, "type": "StR"}');
INSERT INTO "faults" VALUES(1,9,'G5 StF','{"line": {"kind": "stem", "signal": "G5"}, "type": "StF"}');
INSERT INTO "faults" VALUES(1,10,'G6 StR','{"line": {"kind": "stem", "signal": "G6"}, "type": "StR"}');
INSERT INTO "faults" VALUES(1,11,'G6 StF','{"line": {"kind": "stem", "signal": "G6"}, "type": "StF"}');
INSERT INTO "faults" VALUES(1,12,'G7 StR','{"line": {"kind": "stem", "signal": "G7"}, "type": "StR"}');
INSERT INTO "faults" VALUES(1,13,'G7 StF','{"line": {"kind": "stem", "signal": "G7"}, "type": "StF"}');
INSERT INTO "faults" VALUES(1,14,'G14 StR','{"line": {"kind": "stem", "signal": "G14"}, "type": "StR"}');
INSERT INTO "faults" VALUES(1,15,'G14 StF','{"line": {"kind": "stem", "signal": "G14"}, "type": "StF"}');
INSERT INTO "faults" VALUES(1,16,'G14->G8[0] StR','{"line": {"kind": "branch", "pin": 0, "signal": "G14", "sink": "G8"}, "type": "StR"}');
INSERT INTO "faults" VALUES(1,17,'G14->G8[0] StF','{"line": {"kind": "branch", "pin": 0, "signal": "G14", "sink": "G8"}, "type": "StF"}');
INSERT INTO "faults" VALUES(1,18,'G14->G10[0] StR','{"line": {"kind": "branch", "pin": 0, "signal": "G14", "sink": "G10"}, "type": "StR"}');
INSERT INTO "faults" VALUES(1,19,'G14->G10[0] StF','{"line": {"kind": "branch", "pin": 0, "signal": "G14", "sink": "G10"}, "type": "StF"}');
INSERT INTO "faults" VALUES(1,20,'G17 StR','{"line": {"kind": "stem", "signal": "G17"}, "type": "StR"}');
INSERT INTO "faults" VALUES(1,21,'G17 StF','{"line": {"kind": "stem", "signal": "G17"}, "type": "StF"}');
INSERT INTO "faults" VALUES(1,22,'G8 StR','{"line": {"kind": "stem", "signal": "G8"}, "type": "StR"}');
INSERT INTO "faults" VALUES(1,23,'G8 StF','{"line": {"kind": "stem", "signal": "G8"}, "type": "StF"}');
INSERT INTO "faults" VALUES(1,24,'G8->G15[1] StR','{"line": {"kind": "branch", "pin": 1, "signal": "G8", "sink": "G15"}, "type": "StR"}');
INSERT INTO "faults" VALUES(1,25,'G8->G15[1] StF','{"line": {"kind": "branch", "pin": 1, "signal": "G8", "sink": "G15"}, "type": "StF"}');
INSERT INTO "faults" VALUES(1,26,'G8->G16[1] StR','{"line": {"kind": "branch", "pin": 1, "signal": "G8", "sink": "G16"}, "type": "StR"}');
INSERT INTO "faults" VALUES(1,27,'G8->G16[1] StF','{"line": {"kind": "branch", "pin": 1, "signal": "G8", "sink": "G16"}, "type": "StF"}');
INSERT INTO "faults" VALUES(1,28,'G15 StR','{"line": {"kind": "stem", "signal": "G15"}, "type": "StR"}');
INSERT INTO "faults" VALUES(1,29,'G15 StF','{"line": {"kind": "stem", "signal": "G15"}, "type": "StF"}');
INSERT INTO "faults" VALUES(1,30,'G16 StR','{"line": {"kind": "stem", "signal": "G16"}, "type": "StR"}');
INSERT INTO "faults" VALUES(1,31,'G16 StF','{"line": {"kind": "stem", "signal": "G16"}, "type": "StF"}');
INSERT INTO "faults" VALUES(1,32,'G9 StR','{"line": {"kind": "stem", "signal": "G9"}, "type": "StR"}');
INSERT INTO "faults" VALUES(1,33,'G9 StF','{"line": {"kind": "stem", "signal": "G9"}, "type": "StF"}');
INSERT INTO "faults" VALUES(1,34,'G10 StR','{"line": {"kind": "stem", "signal": "G10"}, "type": "StR"}');
INSERT INTO "faults" VALUES(1,35,'G10 StF','{"line": {"kind": "stem", "signal": "G10"}, "type": "StF"}');
INSERT INTO "faults" VALUES(1,36,'G11 StR','{"line": {"kind": "stem", "signal": "G11"}, "type": "StR"}');
INSERT INTO "faults" VALUES(1,37,'G11 StF','{"line": {"kind": "stem", "signal": "G11"}, "type": "StF"}');
INSERT INTO "faults" VALUES(1,38,'G11->G6[0] StR','{"line": {"kind": "branch", "pin": 0, "signal": "G11", "sink": "G6"}, "type": "StR"}');
INSERT INTO "faults" VALUES(1,39,'G11->G6[0] StF','{"line": {"kind": "branch", "pin": 0, "signal": "G11", "sink": "G6"}, "type": "StF"}');
INSERT INTO "faults" VALUES(1,40,'G11->G17[0] StR','{"line": {"kind": "branch", "pin": 0, "signal": "G11", "sink": "G17"}, "type": "StR"}');
INSERT INTO "faults" VALUES(1,41,'G11->G17[0] StF','{"line": {"kind": "branch", "pin": 0, "signal": "G11", "sink": "G17"}, "type": "StF"}');
INSERT INTO "faults" VALUES(1,42,'G11->G10[1] StR','{"line": {"kind": "branch", "pin": 1, "signal": "G11", "sink": "G10"}, "type": "StR"}');
INSERT INTO "faults" VALUES(1,43,'G11->G10[1] StF','{"line": {"kind": "branch", "pin": 1, "signal": "G11", "sink": "G10"}, "type": "StF"}');
INSERT INTO "faults" VALUES(1,44,'G12 StR','{"line": {"kind": "stem", "signal": "G12"}, "type": "StR"}');
INSERT INTO "faults" VALUES(1,45,'G12 StF','{"line": {"kind": "stem", "signal": "G12"}, "type": "StF"}');
INSERT INTO "faults" VALUES(1,46,'G12->G15[0] StR','{"line": {"kind": "branch", "pin": 0, "signal": "G12", "sink": "G15"}, "type": "StR"}');
INSERT INTO "faults" VALUES(1,47,'G12->G15[0] StF','{"line": {"kind": "branch", "pin": 0, "signal": "G12", "sink": "G15"}, "type": "StF"}');
INSERT INTO "faults" VALUES(1,48,'G12->G13[1] StR','{"line": {"kind": "branch", "pin": 1, "signal": "G12", "sink": "G13"}, "type": "StR"}');
INSERT INTO "faults" VALUES(1,49,'G12->G13[1] StF','{"line": {"kind": "branch", "pin": 1, "signal": "G12", "sink": "G13"}, "type": "StF"}');
INSERT INTO "faults" VALUES(1,50,'G13 StR','{"line": {"kind": "stem", "signal": "G13"}, "type": "StR"}');
INSERT INTO "faults" VALUES(1,51,'G13 StF','{"line": {"kind": "stem", "signal": "G13"}, "type": "StF"}');
CREATE TABLE meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
INSERT INTO "meta" VALUES('schema_version','1');
CREATE TABLE results (
    campaign_id           INTEGER NOT NULL REFERENCES campaigns(id) ON DELETE CASCADE,
    ordinal               INTEGER NOT NULL,
    fault                 TEXT NOT NULL,
    fault_json            TEXT NOT NULL,
    status                TEXT NOT NULL,
    phase                 TEXT NOT NULL,
    sequence_id           INTEGER REFERENCES sequences(id),
    attempts              INTEGER NOT NULL,
    local_backtracks      INTEGER NOT NULL,
    sequential_backtracks INTEGER NOT NULL,
    detections_json       TEXT NOT NULL,
    PRIMARY KEY (campaign_id, ordinal)
);
INSERT INTO "results" VALUES(1,0,'G0 StR','{"line": {"kind": "stem", "signal": "G0"}, "type": "StR"}','tested','COMPLETE',1,1,0,101,'[{"line": {"kind": "stem", "signal": "G17"}, "type": "StR"}, {"line": {"kind": "branch", "pin": 0, "signal": "G11", "sink": "G17"}, "type": "StF"}, {"line": {"kind": "stem", "signal": "G11"}, "type": "StF"}, {"line": {"kind": "stem", "signal": "G9"}, "type": "StR"}, {"line": {"kind": "stem", "signal": "G16"}, "type": "StF"}, {"line": {"kind": "branch", "pin": 1, "signal": "G8", "sink": "G16"}, "type": "StF"}, {"line": {"kind": "stem", "signal": "G8"}, "type": "StF"}, {"line": {"kind": "branch", "pin": 0, "signal": "G14", "sink": "G8"}, "type": "StF"}, {"line": {"kind": "stem", "signal": "G14"}, "type": "StF"}, {"line": {"kind": "stem", "signal": "G0"}, "type": "StR"}, {"line": {"kind": "stem", "signal": "G10"}, "type": "StR"}, {"line": {"kind": "branch", "pin": 0, "signal": "G14", "sink": "G10"}, "type": "StF"}, {"line": {"kind": "branch", "pin": 1, "signal": "G11", "sink": "G10"}, "type": "StF"}]');
INSERT INTO "results" VALUES(1,1,'G0 StF','{"line": {"kind": "stem", "signal": "G0"}, "type": "StF"}','aborted','INITIALIZATION',NULL,2,101,0,'[]');
INSERT INTO "results" VALUES(1,2,'G1 StR','{"line": {"kind": "stem", "signal": "G1"}, "type": "StR"}','tested','COMPLETE',2,1,0,0,'[{"line": {"kind": "stem", "signal": "G17"}, "type": "StR"}, {"line": {"kind": "branch", "pin": 0, "signal": "G11", "sink": "G17"}, "type": "StF"}, {"line": {"kind": "stem", "signal": "G11"}, "type": "StF"}, {"line": {"kind": "stem", "signal": "G9"}, "type": "StR"}, {"line": {"kind": "stem", "signal": "G15"}, "type": "StF"}, {"line": {"kind": "branch", "pin": 0, "signal": "G12", "sink": "G15"}, "type": "StF"}, {"line": {"kind": "stem", "signal": "G12"}, "type": "StF"}, {"line": {"kind": "stem", "signal": "G1"}, "type": "StR"}]');
INSERT INTO "results" VALUES(1,3,'G1 StF','{"line": {"kind": "stem", "signal": "G1"}, "type": "StF"}','tested','COMPLETE',3,1,1,0,'[{"line": {"kind": "stem", "signal": "G17"}, "type": "StF"}, {"line": {"kind": "branch", "pin": 0, "signal": "G11", "sink": "G17"}, "type": "StR"}, {"line": {"kind": "stem", "signal": "G11"}, "type": "StR"}, {"line": {"kind": "stem", "signal": "G9"}, "type": "StF"}, {"line": {"kind": "stem", "signal": "G15"}, "type": "StR"}, {"line": {"kind": "branch", "pin": 0, "signal": "G12", "sink": "G15"}, "type": "StR"}, {"line": {"kind": "stem", "signal": "G12"}, "type": "StR"}, {"line": {"kind": "stem", "signal": "G1"}, "type": "StF"}, {"line": {"kind": "stem", "signal": "G5"}, "type": "StF"}]');
INSERT INTO "results" VALUES(1,4,'G2 StR','{"line": {"kind": "stem", "signal": "G2"}, "type": "StR"}','tested','COMPLETE',4,1,11,0,'[{"line": {"kind": "stem", "signal": "G13"}, "type": "StF"}, {"line": {"kind": "stem", "signal": "G2"}, "type": "StR"}]');
INSERT INTO "results" VALUES(1,5,'G2 StF','{"line": {"kind": "stem", "signal": "G2"}, "type": "StF"}','tested','COMPLETE',5,1,5,0,'[{"line": {"kind": "stem", "signal": "G13"}, "type": "StR"}, {"line": {"kind": "stem", "signal": "G2"}, "type": "StF"}]');
INSERT INTO "results" VALUES(1,6,'G3 StR','{"line": {"kind": "stem", "signal": "G3"}, "type": "StR"}','tested','COMPLETE',6,1,1,0,'[{"line": {"kind": "stem", "signal": "G17"}, "type": "StF"}, {"line": {"kind": "branch", "pin": 0, "signal": "G11", "sink": "G17"}, "type": "StR"}, {"line": {"kind": "stem", "signal": "G11"}, "type": "StR"}, {"line": {"kind": "stem", "signal": "G9"}, "type": "StF"}, {"line": {"kind": "stem", "signal": "G16"}, "type": "StR"}, {"line": {"kind": "stem", "signal": "G3"}, "type": "StR"}, {"line": {"kind": "stem", "signal": "G5"}, "type": "StF"}]');
INSERT INTO "results" VALUES(1,7,'G3 StF','{"line": {"kind": "stem", "signal": "G3"}, "type": "StF"}','tested','COMPLETE',7,1,0,0,'[{"line": {"kind": "stem", "signal": "G17"}, "type": "StR"}, {"line": {"kind": "branch", "pin": 0, "signal": "G11", "sink": "G17"}, "type": "StF"}, {"line": {"kind": "stem", "signal": "G11"}, "type": "StF"}, {"line": {"kind": "stem", "signal": "G9"}, "type": "StR"}, {"line": {"kind": "stem", "signal": "G16"}, "type": "StF"}, {"line": {"kind": "stem", "signal": "G3"}, "type": "StF"}]');
INSERT INTO "results" VALUES(1,8,'G5 StR','{"line": {"kind": "stem", "signal": "G5"}, "type": "StR"}','untestable','LOCAL',NULL,1,64,0,'[]');
INSERT INTO "results" VALUES(1,9,'G6 StR','{"line": {"kind": "stem", "signal": "G6"}, "type": "StR"}','aborted','LOCAL',NULL,1,101,0,'[]');
INSERT INTO "results" VALUES(1,10,'G6 StF','{"line": {"kind": "stem", "signal": "G6"}, "type": "StF"}','aborted','LOCAL',NULL,1,101,0,'[]');
INSERT INTO "results" VALUES(1,11,'G7 StR','{"line": {"kind": "stem", "signal": "G7"}, "type": "StR"}','untestable','LOCAL',NULL,1,16,0,'[]');
INSERT INTO "results" VALUES(1,12,'G7 StF','{"line": {"kind": "stem", "signal": "G7"}, "type": "StF"}','tested','COMPLETE',8,1,1,0,'[{"line": {"kind": "stem", "signal": "G17"}, "type": "StF"}, {"line": {"kind": "branch", "pin": 0, "signal": "G11", "sink": "G17"}, "type": "StR"}, {"line": {"kind": "stem", "signal": "G11"}, "type": "StR"}, {"line": {"kind": "stem", "signal": "G9"}, "type": "StF"}, {"line": {"kind": "stem", "signal": "G15"}, "type": "StR"}, {"line": {"kind": "branch", "pin": 0, "signal": "G12", "sink": "G15"}, "type": "StR"}, {"line": {"kind": "stem", "signal": "G12"}, "type": "StR"}, {"line": {"kind": "stem", "signal": "G7"}, "type": "StF"}, {"line": {"kind": "stem", "signal": "G5"}, "type": "StF"}]');
INSERT INTO "results" VALUES(1,13,'G14 StR','{"line": {"kind": "stem", "signal": "G14"}, "type": "StR"}','aborted','INITIALIZATION',NULL,2,101,0,'[]');
INSERT INTO "results" VALUES(1,14,'G14->G8[0] StR','{"line": {"kind": "branch", "pin": 0, "signal": "G14", "sink": "G8"}, "type": "StR"}','aborted','LOCAL',NULL,1,101,0,'[]');
INSERT INTO "results" VALUES(1,15,'G14->G10[0] StR','{"line": {"kind": "branch", "pin": 0, "signal": "G14", "sink": "G10"}, "type": "StR"}','tested','COMPLETE',9,1,0,101,'[{"line": {"kind": "stem", "signal": "G10"}, "type": "StF"}, {"line": {"kind": "branch", "pin": 0, "signal": "G14", "sink": "G10"}, "type": "StR"}, {"line": {"kind": "stem", "signal": "G14"}, "type": "StR"}, {"line": {"kind": "stem", "signal": "G0"}, "type": "StF"}]');
INSERT INTO "results" VALUES(1,16,'G8 StR','{"line": {"kind": "stem", "signal": "G8"}, "type": "StR"}','aborted','LOCAL',NULL,1,101,0,'[]');
INSERT INTO "results" VALUES(1,17,'G8->G15[1] StR','{"line": {"kind": "branch", "pin": 1, "signal": "G8", "sink": "G15"}, "type": "StR"}','aborted','LOCAL',NULL,1,101,0,'[]');
INSERT INTO "results" VALUES(1,18,'G8->G15[1] StF','{"line": {"kind": "branch", "pin": 1, "signal": "G8", "sink": "G15"}, "type": "StF"}','tested','COMPLETE',10,2,13,101,'[{"line": {"kind": "stem", "signal": "G17"}, "type": "StR"}, {"line": {"kind": "branch", "pin": 0, "signal": "G11", "sink": "G17"}, "type": "StF"}, {"line": {"kind": "stem", "signal": "G11"}, "type": "StF"}, {"line": {"kind": "stem", "signal": "G9"}, "type": "StR"}, {"line": {"kind": "stem", "signal": "G15"}, "type": "StF"}, {"line": {"kind": "branch", "pin": 1, "signal": "G8", "sink": "G15"}, "type": "StF"}, {"line": {"kind": "stem", "signal": "G8"}, "type": "StF"}, {"line": {"kind": "branch", "pin": 0, "signal": "G14", "sink": "G8"}, "type": "StF"}, {"line": {"kind": "stem", "signal": "G14"}, "type": "StF"}, {"line": {"kind": "stem", "signal": "G0"}, "type": "StR"}]');
INSERT INTO "results" VALUES(1,19,'G8->G16[1] StR','{"line": {"kind": "branch", "pin": 1, "signal": "G8", "sink": "G16"}, "type": "StR"}','aborted','LOCAL',NULL,1,101,0,'[]');
INSERT INTO "results" VALUES(1,20,'G11->G6[0] StR','{"line": {"kind": "branch", "pin": 0, "signal": "G11", "sink": "G6"}, "type": "StR"}','untestable','LOCAL',NULL,1,0,0,'[]');
INSERT INTO "results" VALUES(1,21,'G11->G6[0] StF','{"line": {"kind": "branch", "pin": 0, "signal": "G11", "sink": "G6"}, "type": "StF"}','untestable','LOCAL',NULL,1,0,0,'[]');
INSERT INTO "results" VALUES(1,22,'G11->G10[1] StR','{"line": {"kind": "branch", "pin": 1, "signal": "G11", "sink": "G10"}, "type": "StR"}','untestable','LOCAL',NULL,1,37,0,'[]');
INSERT INTO "results" VALUES(1,23,'G12->G13[1] StR','{"line": {"kind": "branch", "pin": 1, "signal": "G12", "sink": "G13"}, "type": "StR"}','untestable','LOCAL',NULL,1,50,0,'[]');
INSERT INTO "results" VALUES(1,24,'G12->G13[1] StF','{"line": {"kind": "branch", "pin": 1, "signal": "G12", "sink": "G13"}, "type": "StF"}','tested','COMPLETE',11,1,4,0,'[{"line": {"kind": "stem", "signal": "G13"}, "type": "StR"}, {"line": {"kind": "branch", "pin": 1, "signal": "G12", "sink": "G13"}, "type": "StF"}, {"line": {"kind": "stem", "signal": "G12"}, "type": "StF"}, {"line": {"kind": "stem", "signal": "G1"}, "type": "StR"}]');
CREATE TABLE sequences (
    id            INTEGER PRIMARY KEY AUTOINCREMENT,
    campaign_id   INTEGER NOT NULL REFERENCES campaigns(id) ON DELETE CASCADE,
    kind          TEXT NOT NULL CHECK (kind IN ('fault', 'prefix')),
    ordinal       INTEGER NOT NULL,
    fault         TEXT,
    pattern_count INTEGER NOT NULL,
    sequence_json TEXT NOT NULL
);
INSERT INTO "sequences" VALUES(1,1,'fault',0,'G0 StR',5,'{"fault": {"line": {"kind": "stem", "signal": "G0"}, "type": "StR"}, "initialization_vectors": [{"G0": 0, "G1": 0, "G2": 1, "G3": 0}, {"G0": 0, "G1": 0, "G2": 0, "G3": 1}], "observation_point": "G17", "observed_at_po": false, "pi_pair_values": {"G0": "R", "G1": "0", "G2": "0", "G3": "0"}, "ppi_initial_values": {"G5": 0, "G6": 1, "G7": 0}, "propagation_vectors": [{"G0": 0, "G1": 0, "G2": 0, "G3": 1}], "v1": {"G0": 0, "G1": 0, "G2": 0, "G3": 0}, "v2": {"G0": 1, "G1": 0, "G2": 0, "G3": 0}}');
INSERT INTO "sequences" VALUES(2,1,'fault',2,'G1 StR',3,'{"fault": {"line": {"kind": "stem", "signal": "G1"}, "type": "StR"}, "initialization_vectors": [{"G0": 0, "G1": 0, "G2": 1, "G3": 0}], "observation_point": "G17", "observed_at_po": true, "pi_pair_values": {"G0": "1", "G1": "R", "G2": "0", "G3": "1"}, "ppi_initial_values": {"G5": 0, "G6": 0, "G7": 0}, "propagation_vectors": [], "v1": {"G0": 1, "G1": 0, "G2": 0, "G3": 1}, "v2": {"G0": 1, "G1": 1, "G2": 0, "G3": 1}}');
INSERT INTO "sequences" VALUES(3,1,'fault',3,'G1 StF',3,'{"fault": {"line": {"kind": "stem", "signal": "G1"}, "type": "StF"}, "initialization_vectors": [{"G0": 1, "G1": 0, "G2": 1, "G3": 0}], "observation_point": "G17", "observed_at_po": true, "pi_pair_values": {"G0": "0", "G1": "F", "G2": "1", "G3": "1"}, "ppi_initial_values": {"G5": 1, "G6": 0, "G7": 0}, "propagation_vectors": [], "v1": {"G0": 0, "G1": 1, "G2": 1, "G3": 1}, "v2": {"G0": 0, "G1": 0, "G2": 1, "G3": 1}}');
INSERT INTO "sequences" VALUES(4,1,'fault',4,'G2 StR',4,'{"fault": {"line": {"kind": "stem", "signal": "G2"}, "type": "StR"}, "initialization_vectors": [{"G0": 0, "G1": 1, "G2": 0, "G3": 0}], "observation_point": "G17", "observed_at_po": false, "pi_pair_values": {"G0": "0", "G1": "0", "G2": "R", "G3": "0"}, "ppi_initial_values": {"G5": 0, "G6": 0, "G7": 1}, "propagation_vectors": [{"G0": 1, "G1": 0, "G2": 0, "G3": 1}], "v1": {"G0": 0, "G1": 0, "G2": 0, "G3": 0}, "v2": {"G0": 0, "G1": 0, "G2": 1, "G3": 0}}');
INSERT INTO "sequences" VALUES(5,1,'fault',5,'G2 StF',3,'{"fault": {"line": {"kind": "stem", "signal": "G2"}, "type": "StF"}, "initialization_vectors": [], "observation_point": "G17", "observed_at_po": false, "pi_pair_values": {"G0": "0", "G1": "1", "G2": "F", "G3": "0"}, "ppi_initial_values": {"G5": 0, "G6": 0, "G7": 0}, "propagation_vectors": [{"G0": 1, "G1": 0, "G2": 0, "G3": 1}], "v1": {"G0": 0, "G1": 1, "G2": 1, "G3": 0}, "v2": {"G0": 0, "G1": 1, "G2": 0, "G3": 0}}');
INSERT INTO "sequences" VALUES(6,1,'fault',6,'G3 StR',3,'{"fault": {"line": {"kind": "stem", "signal": "G3"}, "type": "StR"}, "initialization_vectors": [{"G0": 1, "G1": 0, "G2": 1, "G3": 0}], "observation_point": "G17", "observed_at_po": true, "pi_pair_values": {"G0": "0", "G1": "0", "G2": "0", "G3": "R"}, "ppi_initial_values": {"G5": 1, "G6": 0, "G7": 0}, "propagation_vectors": [], "v1": {"G0": 0, "G1": 0, "G2": 0, "G3": 0}, "v2": {"G0": 0, "G1": 0, "G2": 0, "G3": 1}}');
INSERT INTO "sequences" VALUES(7,1,'fault',7,'G3 StF',3,'{"fault": {"line": {"kind": "stem", "signal": "G3"}, "type": "StF"}, "initialization_vectors": [{"G0": 0, "G1": 0, "G2": 1, "G3": 0}], "observation_point": "G17", "observed_at_po": true, "pi_pair_values": {"G0": "1", "G1": "0", "G2": "0", "G3": "F"}, "ppi_initial_values": {"G5": 0, "G6": 0, "G7": 0}, "propagation_vectors": [], "v1": {"G0": 1, "G1": 0, "G2": 0, "G3": 1}, "v2": {"G0": 1, "G1": 0, "G2": 0, "G3": 0}}');
INSERT INTO "sequences" VALUES(8,1,'fault',12,'G7 StF',3,'{"fault": {"line": {"kind": "stem", "signal": "G7"}, "type": "StF"}, "initialization_vectors": [{"G0": 1, "G1": 1, "G2": 0, "G3": 0}], "observation_point": "G17", "observed_at_po": true, "pi_pair_values": {"G0": "0", "G1": "0", "G2": "1", "G3": "1"}, "ppi_initial_values": {"G5": 1, "G6": 0, "G7": 1}, "propagation_vectors": [], "v1": {"G0": 0, "G1": 0, "G2": 1, "G3": 1}, "v2": {"G0": 0, "G1": 0, "G2": 1, "G3": 1}}');
INSERT INTO "sequences" VALUES(9,1,'fault',15,'G14->G10[0] StR',5,'{"fault": {"line": {"kind": "branch", "pin": 0, "signal": "G14", "sink": "G10"}, "type": "StR"}, "initialization_vectors": [{"G0": 1, "G1": 0, "G2": 0, "G3": 0}, {"G0": 0, "G1": 1, "G2": 1, "G3": 0}], "observation_point": "G17", "observed_at_po": false, "pi_pair_values": {"G0": "F", "G1": "0", "G2": "0", "G3": "0"}, "ppi_initial_values": {"G5": 0, "G6": 0, "G7": 0}, "propagation_vectors": [{"G0": 0, "G1": 0, "G2": 0, "G3": 1}], "v1": {"G0": 1, "G1": 0, "G2": 0, "G3": 0}, "v2": {"G0": 0, "G1": 0, "G2": 0, "G3": 0}}');
INSERT INTO "sequences" VALUES(10,1,'fault',18,'G8->G15[1] StF',4,'{"fault": {"line": {"kind": "branch", "pin": 1, "signal": "G8", "sink": "G15"}, "type": "StF"}, "initialization_vectors": [{"G0": 0, "G1": 0, "G2": 1, "G3": 0}, {"G0": 0, "G1": 0, "G2": 0, "G3": 1}], "observation_point": "G17", "observed_at_po": true, "pi_pair_values": {"G0": "R", "G1": "1", "G2": "0", "G3": "1"}, "ppi_initial_values": {"G5": 0, "G6": 1, "G7": 0}, "propagation_vectors": [], "v1": {"G0": 0, "G1": 1, "G2": 0, "G3": 1}, "v2": {"G0": 1, "G1": 1, "G2": 0, "G3": 1}}');
INSERT INTO "sequences" VALUES(11,1,'fault',24,'G12->G13[1] StF',4,'{"fault": {"line": {"kind": "branch", "pin": 1, "signal": "G12", "sink": "G13"}, "type": "StF"}, "initialization_vectors": [{"G0": 0, "G1": 0, "G2": 1, "G3": 0}], "observation_point": "G17", "observed_at_po": false, "pi_pair_values": {"G0": "0", "G1": "R", "G2": "0", "G3": "0"}, "ppi_initial_values": {"G5": 0, "G6": 0, "G7": 0}, "propagation_vectors": [{"G0": 1, "G1": 0, "G2": 0, "G3": 1}], "v1": {"G0": 0, "G1": 0, "G2": 0, "G3": 0}, "v2": {"G0": 0, "G1": 1, "G2": 0, "G3": 0}}');
CREATE TABLE timings (
    campaign_id INTEGER NOT NULL REFERENCES campaigns(id) ON DELETE CASCADE,
    name        TEXT NOT NULL,
    seconds     REAL NOT NULL,
    PRIMARY KEY (campaign_id, name)
);
INSERT INTO "timings" VALUES(1,'cpu_seconds',2.48180776999987529052e-01);
CREATE INDEX idx_campaigns_circuit ON campaigns(circuit);
CREATE INDEX idx_campaigns_config ON campaigns(config_json);
CREATE INDEX idx_results_fault ON results(campaign_id, fault);
CREATE INDEX idx_costs_seconds ON costs(seconds);
DELETE FROM "sqlite_sequence";
INSERT INTO "sqlite_sequence" VALUES('campaigns',1);
INSERT INTO "sqlite_sequence" VALUES('sequences',11);
COMMIT;
